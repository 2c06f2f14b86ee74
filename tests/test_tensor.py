import ast
import contextlib
import functools
import itertools
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

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


NO_EINSUM = ("this numpy's einsum fuses multiply and add or reorders the terms, "
             "so conv2d runs the ufunc fills")


def use_fold(monkeypatch, fold):
    """Make conv2d run ``fold``: "ufunc", the per-term and chunked fills, or
    "einsum", the band fill, which is skipped where this numpy's einsum fails
    the probe."""
    if fold == "einsum" and not T._einsum_folds_in_order():
        pytest.skip(NO_EINSUM)
    monkeypatch.setattr(T, "CONV_FOLD", fold)


def force_schedule(monkeypatch, schedule, shape, block=1, terms=1):
    """Route conv2d through one schedule whatever the size of its (n, oc, oh,
    ow) output ``shape``.

    "ufunc" runs the ufunc fills under their own shape rule; "blocked" sends
    every map through the NCHW ufunc path with output blocks of
    ``block`` output channels; "channel_last" sends every map through the
    channel-last path with one multiply and add per term; "reduce" sends
    every map through the channel-last path that folds chunks of ``block``
    terms (for a share of the whole map) with one reduction each; "bands"
    runs the einsum fill on every map in NCHW order, in bands of ``block``
    rows of a conv with ``terms`` terms (input channels times kernel area),
    and "bands_last" does so channel-last wherever the conv has more than
    one output channel.
    """
    n, oc, oh, ow = shape
    if schedule in ("bands", "bands_last"):
        use_fold(monkeypatch, "einsum")
        monkeypatch.setattr(T, "BAND_BYTES", 4 * terms * n * ow * block)
        monkeypatch.setattr(T, "CHANNEL_LAST_MAX_PIXELS", 0 if schedule == "bands" else 1 << 30)
        return
    use_fold(monkeypatch, "ufunc")
    if schedule == "blocked":
        monkeypatch.setattr(T, "CHANNEL_LAST_MAX_PIXELS", 0)
        monkeypatch.setattr(T, "ACC_BLOCK_BYTES", 4 * n * oh * ow * block)
    elif schedule != "ufunc":
        monkeypatch.setattr(T, "CHANNEL_LAST_MAX_PIXELS", 1 << 30)
        if schedule == "channel_last":
            monkeypatch.setattr(T, "REDUCE_MAX_PIXELS", 0)
        else:
            monkeypatch.setattr(T, "REDUCE_MAX_PIXELS", 1 << 30)
            monkeypatch.setattr(T, "REDUCE_CHUNK_BYTES", 4 * n * oc * oh * ow * block)


# "default" is the fold chosen at import; the einsum fold's bands exist only
# where this numpy's einsum passes the probe.
SCHEDULES = (("default", "ufunc", "blocked", "channel_last", "reduce")
             + (("bands", "bands_last") if T.CONV_FOLD == "einsum" else ()))


@contextlib.contextmanager
def fill_calls(workers=0):
    """Run the block under ``set_parallel(workers)`` and collect (thread id,
    numpy ufunc buffer size, lo, hi) for each of conv2d's fill calls, in the
    caller and in every pool thread.  The list is complete once the block
    ends: every conv waits for all of its shares."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        def spy(fill):
            def run(lo, hi, *args, **kwargs):
                calls.append((threading.get_ident(), np.getbufsize(), lo, hi))
                return fill(lo, hi, *args, **kwargs)
            return run

        for name in ("_fill_blocked", "_fill_channel_last", "_fold_terms", "_fill_einsum"):
            mp.setattr(T, name, spy(getattr(T, name)))
        T.set_parallel(workers)
        try:
            yield calls
        finally:
            T.set_parallel(0)


def fill_name(fill) -> str:
    """A fill ``_schedule`` returns, by name; the band fill with its output
    subscript, as "_fill_einsum-oyx" or "_fill_einsum-yxo"."""
    if isinstance(fill, functools.partial):
        return f"{fill.func.__name__}-{fill.keywords['spec']}"
    return fill.__name__


def in_caller(calls) -> set[bool]:
    return {ident == threading.get_ident() for ident, *_ in calls}


def pool_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("yolite-conv")]


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
        arr = np.asfortranarray(np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4))
        t = T.Tensor(arr)
        assert t.array.flags.c_contiguous
        assert np.array_equal(t.array.ravel(order="K"), np.arange(24, dtype=np.float32))

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

    def test_non_finite_bias_rejected(self):
        with pytest.raises(NonFiniteError, match="bias"):
            T.ConvParams(2, 3, 3, bias=np.array([0.0, np.nan, 0.0], np.float32))

    def test_negative_running_var_rejected(self):
        with pytest.raises(ValueError):
            T.BatchNorm(np.ones(2, np.float32), np.zeros(2, np.float32),
                        np.zeros(2, np.float32), np.array([1.0, -0.5], np.float32))

    def test_batch_norm_lengths_and_values_checked(self):
        one, two = np.ones(3, np.float32), np.ones(2, np.float32)
        bad = np.array([1.0, np.inf, 1.0], np.float32)
        for args, cls, message in [
            ((one, two, one, one), ShapeError, "batch-norm beta length 2 != gamma length 3"),
            ((one, one, one, two), ShapeError, "batch-norm running_var length 2 != gamma length 3"),
            ((one, one, bad, one), NonFiniteError,
             "batch-norm running_mean holds non-finite values"),
            ((bad, one, one, one), NonFiniteError, "batch-norm gamma holds non-finite values"),
        ]:
            with pytest.raises(cls, match=f"^{message}$"):
                T.BatchNorm(*args)

    @pytest.mark.parametrize("args, kwargs", [
        ((0, 8, 3), {}), ((3, 0, 3), {}), ((3, 8, 0), {}),
        ((3, 8, 3), {"stride": 0}), ((3, 8, 3), {"padding": -1}),
    ], ids=["in", "out", "kernel", "stride", "padding"])
    def test_dimensions_must_be_positive(self, args, kwargs):
        message = "conv dimensions must be positive (padding >= 0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            T.ConvParams(*args, **kwargs)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((3, 8, 3.0), {}, "conv kernel_size must be an integer, got 3.0"),
        ((3, 8, 2.5), {"weights": np.zeros(3 * 8 * 4)},
         "conv kernel_size must be an integer, got 2.5"),
        ((3.0, 8, 3), {}, "conv in_channels must be an integer, got 3.0"),
        ((3, True, 3), {}, "conv out_channels must be an integer, got True"),
        ((3, 8, 3), {"stride": 1.5}, "conv stride must be an integer, got 1.5"),
        ((3, 8, 3), {"padding": 1.0}, "conv padding must be an integer, got 1.0"),
    ], ids=["float-kernel", "fractional-kernel-with-weights", "float-in", "bool-out",
            "float-stride", "float-padding"])
    def test_dimensions_must_be_integers(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            T.ConvParams(*args, **kwargs)

    def test_dimensions_take_numpy_integers(self):
        p = T.ConvParams(np.int64(3), np.uint8(8), np.int32(3), stride=np.int16(2),
                         padding=np.int64(1))
        dims = (p.in_channels, p.out_channels, p.kernel_size, p.stride, p.padding)
        assert dims == (3, 8, 3, 2, 1) and {type(d) for d in dims} == {int}

    def test_bias_and_batch_norm_lengths_checked(self):
        with pytest.raises(ShapeError, match="^bias length 7 != out_channels = 8$"):
            T.ConvParams(3, 8, 3, bias=np.zeros(7, np.float32))
        with pytest.raises(ShapeError, match="^batch-norm channel count 4 != out_channels = 8$"):
            T.ConvParams(3, 8, 3, bn=T.BatchNorm.identity(4))


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
        with pytest.raises(ShapeError, match="^width 1 too small for kernel 3 with padding 0$"):
            T.conv2d(T.Tensor.zeros(1, 1, 3, 1), p)

    @pytest.mark.parametrize("fold", ["einsum", "ufunc"])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_empty_batch_rejected(self, monkeypatch, fold, padding):
        monkeypatch.setattr(T, "CONV_FOLD", fold)
        x = T.Tensor(np.zeros((0, 3, 8, 8), np.float32))
        with pytest.raises(ShapeError, match="^batch size must be >= 1, got 0$"):
            T.conv2d(x, T.ConvParams(3, 4, 3, padding=padding))

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

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("size, stride, reduces", [
        (8, 1, True), (9, 1, False), (16, 2, True), (17, 2, False)])
    def test_maps_of_at_most_8x8_fold_chunks_of_terms(self, monkeypatch, workers, size,
                                                      stride, reduces):
        # padded 3x3 convs on a batch of two, making 8x8 or 9x9 maps
        rng = np.random.default_rng(size)
        x = rand_tensor(rng, 2, 3, size, size)
        kern = rng.random((4, 3, 3, 3), dtype=np.float32) * 2 - 1
        bias = rng.random(4, dtype=np.float32) * 2 - 1
        p = T.ConvParams(3, 4, 3, stride=stride, padding=1, weights=kern.reshape(-1),
                         bias=bias)
        ref = oracles.conv2d_naive(x.array, kern, bias, stride, 1)
        assert ref.shape == ((2, 4, 8, 8) if reduces else (2, 4, 9, 9))
        use_fold(monkeypatch, "ufunc")
        folds, fold = [], T._fold_terms

        def spy(lo, hi, *args):
            folds.append((lo, hi))
            fold(lo, hi, *args)

        monkeypatch.setattr(T, "_fold_terms", spy)
        T.set_parallel(workers)
        try:
            got = T.conv2d(x, p).array
        finally:
            T.set_parallel(0)
        assert bits_equal(got, ref)
        # one fold call per share of the rows, the pool's included
        shares = [ref.shape[2] * i // max(workers, 1) for i in range(max(workers, 1) + 1)]
        assert sorted(folds) == (list(zip(shares, shares[1:])) if reduces else [])

    def test_one_element_tiles_keep_the_fold_order(self):
        # A 1x1 map with one output channel leaves a single output element,
        # whose terms numpy's reduction would add pairwise.  Products spread
        # over e^-12..e^12 make a reordered sum round differently.
        rng = np.random.default_rng(21)
        bias = np.zeros(1, np.float32)
        for case in range(50):
            x, kern = (rng.standard_normal((2, 1, 64, 3, 3))
                       * np.exp(rng.uniform(-6, 6, (2, 1, 64, 3, 3)))).astype(np.float32)
            p = T.ConvParams(64, 1, 3, weights=kern.reshape(-1))
            ref = oracles.conv2d_naive(x, kern, bias, 1, 0)
            assert bits_equal(T.conv2d(T.Tensor(x), p).array, ref), f"case {case}"

    @pytest.mark.parametrize("bufsize", [T.UFUNC_BUFSIZE, 8192])  # 8192: numpy's default
    @pytest.mark.parametrize("inner", [(2,), (3,), (17,), (1000,), (8200,), (2, 1, 3, 8)])
    def test_numpy_reduces_axis_0_one_row_at_a_time(self, bufsize, inner):
        # The reduce path's exactness rests on np.add.reduce over axis 0 of a
        # C-contiguous array with two or more elements per row adding the
        # rows to each element one at a time, in order.  The values spread
        # over e^-6..e^6 with random signs, so that summing the two halves
        # apart, as a pairwise reduction does, rounds differently.
        rng = np.random.default_rng(len(inner) * inner[0])
        old = np.setbufsize(bufsize)
        try:
            for rows in (2, 3, 9, 33, 130):
                a = (rng.standard_normal((rows,) + inner)
                     * np.exp(rng.uniform(-6, 6, (rows,) + inner))).astype(np.float32)
                got = np.empty(inner, np.float32)
                np.add.reduce(a, axis=0, out=got)
                want = a[0].copy()
                for row in a[1:]:
                    np.add(want, row, out=want)
                assert bits_equal(got, want), f"{rows} rows"
                if rows > 2 and want.size > 16:
                    halves = np.add.reduce(a[:rows // 2], axis=0) + np.add.reduce(a[rows // 2:], axis=0)
                    assert not bits_equal(halves, want), f"{rows} rows cannot tell the order"
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("bufsize", [T.UFUNC_BUFSIZE, 8192])
    @pytest.mark.parametrize("c, oc, k, rows, ow", [
        (3, 32, 3, 8, 208),    # the first conv at 416 px
        (128, 64, 3, 4, 26),   # a 3x3 stage conv
        (512, 255, 1, 13, 13),  # a head conv
        (2, 1, 7, 5, 52),      # the attention gate's spatial conv: one channel
        (64, 8, 1, 1, 1),      # one pixel, several channels
        (512, 512, 3, 4, 4),   # trunk at 128 px
        (128, 128, 3, 8, 8),   # a stage-3 conv at 128 px
        (256, 512, 3, 6, 13),  # a 6-row share of head13_conv at 416 px
        (16, 2, 3, 4, 4),      # two output channels
    ])
    def test_numpy_einsum_folds_terms_in_order_with_two_roundings(self, bufsize, c, oc, k,
                                                                 rows, ow):
        # The einsum fill's exactness rests on np.einsum("to,tyx->oyx") and,
        # with more than one output channel, np.einsum("to,tyx->yxo"), with
        # the term axis slowest in both operands, adding one product at a
        # time to each element, in term order, with one rounding for the
        # multiply and one for the add.  The values spread over 2^-16..2^16
        # with random signs, so a fused multiply-add or a reordered sum
        # rounds differently.
        if not T._einsum_folds_in_order():
            pytest.skip(NO_EINSUM)
        rng = np.random.default_rng(c * oc * k)
        taps, cols = (np.ldexp(rng.standard_normal(shape), rng.integers(-16, 17, shape))
                      .astype(np.float32) for shape in ((c * k * k, oc), (c * k * k, rows, ow)))
        want = np.zeros((oc, rows, ow), np.float32)
        fused = np.zeros((oc, rows, ow), np.float32)
        for tap, col in zip(taps, cols):
            np.add(want, np.multiply(tap[:, None, None], col), out=want)
            fused = (fused + tap[:, None, None].astype(np.float64) * col).astype(np.float32)
        assert not bits_equal(fused, want)
        for spec in ("oyx", "yxo") if oc > 1 else ("oyx",):
            def fold(taps, cols):
                # the result in (oc, rows, ow) order, whatever its layout
                got = np.einsum("to,tyx->" + spec, taps, cols)
                return got.transpose([spec.index(axis) for axis in "oyx"])

            half = len(taps) // 2
            halves = fold(taps[:half], cols[:half]) + fold(taps[half:], cols[half:])
            old = np.setbufsize(bufsize)
            try:
                got = fold(taps, cols)
            finally:
                np.setbufsize(old)
            assert bits_equal(got, want), spec
            assert not bits_equal(halves, want), spec

    def test_parallel_matches_serial(self, monkeypatch):
        # 11 output channels in blocks of 3, or 10 output rows, in bands of 3
        # rows or as one chunk: the shares are uneven for every worker count,
        # and so are the blocks and bands in them, yet each share is filled
        # in one call
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, 2, 6, 10, 10)
        kern = (rng.random((11, 6, 3, 3), dtype=np.float32) * 2 - 1)
        p = T.ConvParams(6, 11, 3, padding=1, weights=kern.reshape(-1))
        for schedule in SCHEDULES:
            with monkeypatch.context() as mp:
                if schedule != "default":
                    force_schedule(mp, schedule, (2, 11, 10, 10), block=3, terms=6 * 9)
                serial = T.conv2d(x, p).array
                for workers in (2, 3, 4):
                    with fill_calls(workers) as calls:
                        par = T.conv2d(x, p).array
                    case = f"{schedule} with {workers} workers"
                    assert bits_equal(serial, par), case
                    assert in_caller(calls) == {True, False}, case
                    # one fill call per contiguous share, the caller's the first
                    total = 11 if schedule == "blocked" else 10
                    shares = [total * i // workers for i in range(workers + 1)]
                    spans = sorted((lo, hi, ident) for ident, _, lo, hi in calls)
                    assert [(lo, hi) for lo, hi, _ in spans] == list(zip(shares, shares[1:])), case
                    assert spans[0][2] == threading.get_ident(), case
                    assert threading.get_ident() not in {i for _, _, i in spans[1:]}, case
                    units = sorted(u for _, _, lo, hi in calls for u in range(lo, hi))
                    assert units == list(range(total)), case

    @pytest.mark.parametrize("workers", [0, 2, 3])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_unpadded_strided_conv_matches_naive(self, monkeypatch, schedule, workers):
        # the only padding-0 conv checked in parallel mode; the map is not
        # square, so swapped rows and columns would show
        rng = np.random.default_rng(19)
        x = rand_tensor(rng, 2, 5, 19, 17)
        kern = rng.random((7, 5, 3, 3), dtype=np.float32) * 2 - 1
        bias = rng.random(7, dtype=np.float32) * 2 - 1
        p = T.ConvParams(5, 7, 3, stride=2, weights=kern.reshape(-1), bias=bias)
        ref = oracles.conv2d_naive(x.array, kern, bias, 2, 0)
        assert ref.shape == (2, 7, 9, 8)
        if schedule != "default":
            force_schedule(monkeypatch, schedule, ref.shape, block=3, terms=5 * 9)
        with fill_calls(workers) as calls:
            got = T.conv2d(x, p).array
        assert bits_equal(got, ref)
        assert in_caller(calls) == ({True} if workers == 0 else {True, False})

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_fills_read_an_unpadded_input_in_place(self, monkeypatch, padding, workers):
        # With padding 0 every share's fill gets the caller's read-only
        # array itself; with padding the fills share one private copy.
        # Either way the caller's array keeps its values and stays
        # read-only, under every schedule.
        rng = np.random.default_rng(37)
        x = rand_tensor(rng, 2, 4, 12, 11)
        before = x.array.copy()
        kern = rng.random((6, 4, 3, 3), dtype=np.float32) * 2 - 1
        p = T.ConvParams(4, 6, 3, padding=padding, weights=kern.reshape(-1))
        ref = oracles.conv2d_naive(x.array, kern, np.zeros(6, np.float32), 1, padding)
        schedule = T._schedule
        for name in SCHEDULES:
            inputs = []

            def spy(shape):
                fill, units = schedule(shape)

                def run(lo, hi, xp, *args, **kwargs):
                    inputs.append(xp)
                    return fill(lo, hi, xp, *args, **kwargs)
                return run, units

            with monkeypatch.context() as mp:
                if name != "default":
                    force_schedule(mp, name, ref.shape, block=2, terms=4 * 9)
                mp.setattr(T, "_schedule", spy)
                T.set_parallel(workers)
                try:
                    got = T.conv2d(x, p).array
                finally:
                    T.set_parallel(0)
            assert bits_equal(got, ref), name
            assert len(inputs) == max(workers, 1), name
            if padding == 0:
                assert all(xp is x.array for xp in inputs), name
            else:
                assert all(xp is inputs[0] for xp in inputs), name
                assert not np.shares_memory(inputs[0], x.array), name
            assert bits_equal(x.array, before) and not x.array.flags.writeable, name

    @pytest.mark.parametrize("fill, spec", [
        ("_fill_blocked", ()), ("_fill_channel_last", ()), ("_fold_terms", ()),
        ("_fill_einsum", ("oyx",)), ("_fill_einsum", ("yxo",)),
    ], ids=["_fill_blocked", "_fill_channel_last", "_fold_terms", "_fill_einsum",
            "_fill_einsum-yxo"])
    def test_a_fill_writes_only_its_share(self, monkeypatch, fill, spec):
        # Each thread fills its share of the one NCHW output in place, so a
        # fill that wrote outside [lo, hi) would race with another.  Blocks
        # of 2 channels, bands of 2 rows and chunks of a few terms make every
        # fill take more than one step over the share.  The einsum fill folds
        # NCHW with the "oyx" subscript and channel-last with "yxo"; both,
        # like the channel-last ufunc fills, write the NCHW output.
        if fill == "_fill_einsum":
            use_fold(monkeypatch, "einsum")
        rng = np.random.default_rng(23)
        n, c, oc, k, s, p = 2, 3, 6, 3, 2, 1
        x = rng.random((n, c, 11, 9), dtype=np.float32) * 2 - 1
        kern = rng.random((oc, c, k, k), dtype=np.float32) * 2 - 1
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        wt = np.ascontiguousarray(kern.transpose(1, 2, 3, 0))
        ref = oracles.conv2d_naive(x, kern, np.zeros(oc, np.float32), s, p)
        oh, ow = ref.shape[2:]
        assert (oh, ow) == (6, 5)
        monkeypatch.setattr(T, "ACC_BLOCK_BYTES", 4 * n * oh * ow * 2)
        monkeypatch.setattr(T, "REDUCE_CHUNK_BYTES", 4 * n * 2 * ow * oc * 4)
        monkeypatch.setattr(T, "BAND_BYTES", 4 * c * k * k * n * ow * 2)
        axis = 1 if fill == "_fill_blocked" else 2  # output channels, else rows
        whole, share = (np.full(ref.shape, np.nan, np.float32) for _ in range(2))
        getattr(T, fill)(0, ref.shape[axis], xp, wt, s, whole, *spec)
        assert bits_equal(whole, ref)
        lo, hi = 1, ref.shape[axis] - 2
        getattr(T, fill)(lo, hi, xp, wt, s, share, *spec)
        share, whole = np.moveaxis(share, axis, 0), np.moveaxis(whole, axis, 0)
        assert np.isnan(share[:lo]).all() and np.isnan(share[hi:]).all()
        assert bits_equal(share[lo:hi], whole[lo:hi])

    @pytest.mark.parametrize("oc, c, workers", [(2, 5, 3), (3, 4, 4), (512, 16, 2)])
    def test_channel_last_einsum_row_shares_match_serial(self, monkeypatch, oc, c, workers):
        # A batch of two 13x13 maps, the largest that folds channel-last: its
        # 13 rows split into shares of 4/4/5, 3/3/3/4 and 6/7 rows.  Serial
        # runs the per-term ufunc fill, which the battery checks against
        # the scalar reference.
        rng = np.random.default_rng(oc)
        x = rand_tensor(rng, 2, c, 13, 13)
        p = T.ConvParams(c, oc, 3, padding=1,
                         weights=rng.random(oc * c * 9, dtype=np.float32) * 2 - 1)
        with monkeypatch.context() as mp:
            force_schedule(mp, "channel_last", (2, oc, 13, 13))
            serial = T.conv2d(x, p).array
        use_fold(monkeypatch, "einsum")
        fill, units = T._schedule(serial.shape)
        assert (fill_name(fill), units) == ("_fill_einsum-yxo", 13)
        with fill_calls(workers) as calls:
            par = T.conv2d(x, p).array
        assert bits_equal(par, serial)
        shares = [13 * i // workers for i in range(workers + 1)]
        assert sorted((lo, hi) for _, _, lo, hi in calls) == list(zip(shares, shares[1:]))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("schedule", ["blocked", "channel_last", "reduce", "bands",
                                          "bands_last"])
    def test_fewer_units_than_processes_run_on_the_caller(self, monkeypatch, schedule,
                                                         workers):
        # a 1x1 output map has one row; a forced blocked NCHW conv with one
        # output channel has one channel
        rng = np.random.default_rng(13)
        oc, size = (1, 6) if schedule == "blocked" else (5, 1)
        x = rand_tensor(rng, 1, 4, size, size)
        p = T.ConvParams(4, oc, 1, weights=rng.random(4 * oc, dtype=np.float32))
        force_schedule(monkeypatch, schedule, (1, oc, size, size))
        serial = T.conv2d(x, p).array
        with fill_calls(workers) as calls:
            par = T.conv2d(x, p).array
        assert bits_equal(serial, par)
        assert in_caller(calls) == {True}

    def test_set_parallel_keeps_one_pool_and_joins_it(self):
        rng = np.random.default_rng(10)
        x = rand_tensor(rng, 1, 3, 40, 40)
        p = T.ConvParams(3, 8, 3, padding=1,
                         weights=rng.random(8 * 3 * 9, dtype=np.float32))
        try:
            T.set_parallel(4)
            first = T._pool
            T.conv2d(x, p)
            T.set_parallel(4)
            assert T._pool is first
            T.conv2d(x, p)
            assert 1 <= len(pool_threads()) <= 3
            T.set_parallel(2)
            assert T._pool is not first and pool_threads() == []  # joined
            T.conv2d(x, p)
            assert len(pool_threads()) == 1
        finally:
            T.set_parallel(0)
        assert T._pool is None and pool_threads() == []

    @pytest.mark.parametrize("start", [0, 2])
    @pytest.mark.parametrize("bad", [1.5, 2.7, np.float64(2.0), "2", True, None, -1])
    def test_set_parallel_rejects_a_bad_count_and_changes_nothing(self, start, bad):
        x = T.Tensor.full((1, 2, 30, 30), 1.0)
        p = T.ConvParams(2, 4, 3, padding=1, weights=np.ones(72, np.float32))
        want = T.conv2d(x, p).array
        T.set_parallel(start)
        try:
            workers, pool = T._workers, T._pool
            with pytest.raises(ValueError, match="workers must be"):
                T.set_parallel(bad)
            assert T._workers == workers and T._pool is pool
            assert len(pool_threads()) <= max(start - 1, 0)  # no pool started
            assert bits_equal(T.conv2d(x, p).array, want)
        finally:
            T.set_parallel(0)

    def test_set_parallel_takes_numpy_integers(self):
        try:
            T.set_parallel(np.int64(2))
            assert T._workers == 2 and type(T._workers) is int and T._pool is not None
        finally:
            T.set_parallel(np.uint8(0))
        assert T._workers == 1 and T._pool is None

    def test_serial_restores_the_modules_state(self):
        x = T.Tensor.full((1, 2, 30, 30), 1.0)
        p = T.ConvParams(2, 4, 3, padding=1, weights=np.ones(72, np.float32))
        before = dict(vars(T))
        T.set_parallel(3)
        T.conv2d(x, p)
        T.set_parallel(0)
        after = dict(vars(T))
        assert after.keys() == before.keys()
        assert [k for k in before if after[k] is not before[k]] == []
        assert T._pool is None

    def test_threads_sharing_the_pool_get_their_own_results(self):
        # more threads than cores, switching as often as possible, on maps
        # of different sizes
        rng = np.random.default_rng(17)
        p = T.ConvParams(3, 8, 3, padding=1, weights=rng.random(8 * 3 * 9, dtype=np.float32))
        xs = [rand_tensor(rng, 1, 3, size, size) for size in (8, 24, 33, 40)]
        serial = [T.conv2d(x, p).array for x in xs]
        results = {i: [] for i in range(len(xs))}

        def run(i):
            for _ in range(5):
                results[i].append(T.conv2d(xs[i], p).array)

        switch = sys.getswitchinterval()
        T.set_parallel(3)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
            T.set_parallel(0)
        for i, want in enumerate(serial):
            assert len(results[i]) == 5
            assert all(bits_equal(got, want) for got in results[i]), i

    def test_an_error_in_a_pool_share_is_raised_once_every_share_is_done(self, monkeypatch):
        # Of three shares, the pool's first to start raises at once and the
        # other is still running then.  The conv raises that error after
        # both other shares have finished, and parallel mode stays on.
        rng = np.random.default_rng(15)
        x = rand_tensor(rng, 1, 3, 40, 40)
        p = T.ConvParams(3, 8, 3, padding=1,
                         weights=rng.random(8 * 3 * 9, dtype=np.float32))
        serial = T.conv2d(x, p).array
        caller, pool_calls, done = threading.get_ident(), itertools.count(), []
        fill, units = T._schedule(serial.shape)

        def fails_in_pool(*args, **kwargs):
            if threading.get_ident() != caller:
                if next(pool_calls) == 0:
                    raise RuntimeError("a pool share failed")
                time.sleep(0.2)
            fill(*args, **kwargs)
            done.append(threading.get_ident() == caller)

        monkeypatch.setattr(T, "_schedule", lambda shape: (fails_in_pool, units))
        T.set_parallel(3)
        try:
            pool = T._pool
            with pytest.raises(RuntimeError, match="a pool share failed"):
                T.conv2d(x, p)
            assert sorted(done) == [False, True]
            monkeypatch.undo()
            assert T._pool is pool
            assert bits_equal(T.conv2d(x, p).array, serial)
        finally:
            T.set_parallel(0)

    def test_a_process_left_in_parallel_mode_exits_cleanly(self):
        # no set_parallel(0) before exit: concurrent.futures joins the pool
        code = ("import numpy as np; from yolite import tensor as T; T.set_parallel(2); "
                "T.conv2d(T.Tensor.full((1, 2, 30, 30), 1.0), "
                "T.ConvParams(2, 4, 3, padding=1, weights=np.ones(72, np.float32)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("caller", [4096, 8192, 1 << 20])
    def test_callers_buffer_size_is_restored(self, caller):
        x = T.Tensor.full((1, 2, 6, 6), 2.0)
        ok = T.ConvParams(2, 3, 3, padding=1, weights=np.ones(54, np.float32))
        huge = T.ConvParams(2, 3, 3, padding=1, weights=np.full(54, 3e38, np.float32))
        old = np.setbufsize(caller)
        try:
            T.conv2d(x, ok)
            assert np.getbufsize() == caller
            with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
                T.conv2d(x, huge)
            assert np.getbufsize() == caller
            with pytest.raises(ShapeError):
                T.conv2d(T.Tensor.zeros(1, 3, 6, 6), ok)
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_fills_run_under_the_small_buffer(self, workers):
        rng = np.random.default_rng(12)
        p = T.ConvParams(3, 8, 3, padding=1, weights=rng.random(8 * 3 * 9, dtype=np.float32))
        with fill_calls(workers) as calls:
            for size in (40, 8):  # one map per schedule
                T.conv2d(rand_tensor(rng, 1, 3, size, size), p)
        assert {size for _, size, *_ in calls} == {T.UFUNC_BUFSIZE}
        assert in_caller(calls) == ({True} if workers == 0 else {True, False})

    @pytest.mark.parametrize("c, oc, k, size", [
        (2, 3, 3, 8), (2, 3, 3, 13), (2, 3, 3, 26), (2, 3, 3, 52), (2, 3, 3, 104),
        (1, 8200, 1, 3),  # channel-last rows longer than numpy's default buffer
    ])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_output_does_not_depend_on_callers_buffer_size(self, monkeypatch, c, oc, k,
                                                            size, stride):
        # NCHW products run over (oh, ow) planes and channel-last ones over oc
        # channels; the cases put those runs on both sides of 8,192 elements.
        rng = np.random.default_rng(size * stride)
        x = rand_tensor(rng, 1, c, size, size)
        kern = rng.random((oc, c, k, k), dtype=np.float32) * 2 - 1
        bias = rng.random(oc, dtype=np.float32) * 2 - 1
        p = T.ConvParams(c, oc, k, stride=stride, padding=k // 2,
                         weights=kern.reshape(-1), bias=bias)
        ref = oracles.conv2d_naive(x.array, kern, bias, stride, k // 2)
        for schedule in SCHEDULES:
            with monkeypatch.context() as mp:
                if schedule != "default":
                    force_schedule(mp, schedule, ref.shape, block=2, terms=c * k * k)
                for caller in (16, 8192, 1 << 20):
                    old = np.setbufsize(caller)
                    try:
                        got = T.conv2d(x, p).array
                    finally:
                        np.setbufsize(old)
                    assert bits_equal(got, ref), f"{schedule} under a caller's {caller}"


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

    def test_kernel_and_stride_must_be_integers(self):
        x = T.Tensor.zeros(1, 2, 4, 4)
        with pytest.raises(ValueError, match="^pool kernel must be an integer, got 2.0$"):
            T.pool2d(x, "max", 2.0, 2)
        with pytest.raises(ValueError, match="^pool stride must be an integer, got True$"):
            T.pool2d(x, "avg", 2, True)
        assert T.pool2d(x, "max", np.int64(2), np.int64(2)).shape == (1, 2, 2, 2)

    def test_window_larger_than_input_rejected(self):
        x = T.Tensor.zeros(1, 1, 3, 3)
        with pytest.raises(ShapeError):
            T.pool2d(x, "max", 4, 1)


class TestActivations:
    def test_relu_bit_pattern(self):
        x = T.Tensor(np.array([[[[-0.0, 0.0, -1.5, 2.0]]]], np.float32))
        want = np.array([[[[0.0, 0.0, 0.0, 2.0]]]], np.float32)
        assert bits_equal(T.relu(x).array, want)

    def test_no_vectorized_exp_in_package(self):
        # numpy's exp differs from math.exp in the last bit on some inputs.
        for path in pathlib.Path(T.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert "np.exp" not in text and "numpy.exp" not in text, path.name

    def test_only_conv_changes_the_ufunc_buffer(self):
        # numpy's buffer size is per thread: conv2d and the pool's conv shares
        # set it only through _small_ufunc_buffer.
        def refs(tree):
            return sum(isinstance(node, ast.Attribute) and node.attr == "setbufsize"
                       or isinstance(node, ast.Name) and node.id == "setbufsize"
                       or isinstance(node, ast.alias) and node.name == "setbufsize"
                       for node in ast.walk(tree))

        for path in pathlib.Path(T.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            allowed = {"_small_ufunc_buffer"} if path.name == "tensor.py" else set()
            inside = {fn.name: refs(fn) for fn in tree.body
                      if isinstance(fn, ast.FunctionDef) and fn.name in allowed}
            assert refs(tree) == sum(inside.values()), path.name
            assert all(inside.values()) and inside.keys() == allowed, path.name

    def test_leaky_branches(self):
        x = T.Tensor(np.array([[[[5.0, -10.0], [0.0, -1.0]]]], np.float32))
        y = T.leaky_relu(x)
        assert y.array[0, 0, 0, 0] == 5.0
        assert y.array[0, 0, 0, 1] == -1.0
        assert y.array[0, 0, 1, 0] == 0.0

    def test_leaky_monotone_and_identity_on_nonneg(self):
        rng = np.random.default_rng(0)
        vals = np.sort((rng.random(64, dtype=np.float32) * 8 - 4))
        x = T.Tensor(vals.reshape(1, 1, 8, 8))
        y = T.leaky_relu(x).array.reshape(-1)
        assert np.all(np.diff(y) >= 0)
        nonneg = vals >= 0
        assert np.array_equal(y[nonneg], vals[nonneg])

    def test_leaky_equals_the_where_formula_bit_for_bit(self):
        rng = np.random.default_rng(16)
        tiny, big = np.finfo(np.float32).tiny, np.finfo(np.float32).max
        edges = np.array([0.0, -0.0, 1e-45, -1e-45, tiny, -tiny, big, -big], np.float32)
        bits = rng.integers(0, 1 << 32, 1 << 20, dtype=np.uint64).astype(np.uint32)
        patterns = bits.view(np.float32)
        v = np.concatenate([edges, rng.normal(0, 1, 1 << 20).astype(np.float32),
                            (rng.normal(0, 1, 1 << 20) * 1e-40).astype(np.float32),
                            patterns[np.isfinite(patterns)]])
        got = T.leaky_relu(T.Tensor(v.reshape(1, 1, 1, -1))).array.reshape(-1)
        assert bits_equal(got, np.where(v >= 0, v, v / T.LEAKY_A))

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

    def test_sigmoid_matches_scalar_logistic_bit_for_bit(self):
        # the scalar logistic rounded to float32, then clipped into
        # [smallest subnormal, 1 - 2^-24]
        rng = np.random.default_rng(12)
        edges = [0.0, -0.0, 1e-45, -1e-45, 16.6, 16.7, 17.4, -17.4, 36.7, -36.7,
                 103.0, -103.3, -104.0, -745.0, -746.0, 3.4e38, -3.4e38]
        v = np.concatenate([rng.normal(0, 4, 4000), rng.normal(0, 40, 2000),
                            edges]).astype(np.float32)
        got = T.sigmoid(T.Tensor(v.reshape(1, 1, 1, -1))).array.reshape(-1)
        want = np.array([min(max(np.float32(oracles.sigmoid_scalar(float(x))),
                                 np.float32(1e-45)),
                             np.float32(1.0) - np.float32(2.0 ** -24)) for x in v],
                        dtype=np.float32)
        assert bits_equal(got, want)
        assert got.min() == np.float32(1e-45)
        assert got.max() == np.float32(1.0) - np.float32(2.0 ** -24)



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
            assert np.all(T.global_pool(x, kind, (2, 3)).array == 2.5)
            assert np.all(T.global_pool(x, kind, 1).array == 2.5)

    def test_channel_avg_example(self):
        x = T.Tensor(np.array([[[[0.0, 0.0], [0.0, 4.0]]]], np.float32))
        assert T.global_pool(x, "avg", (2, 3)).array[0, 0, 0, 0] == 1.0

    @pytest.mark.parametrize("shape", [(2, 5, 6, 7), (2, 1, 3, 4), (1, 1, 3, 4),
                                       (2, 5, 1, 1), (1, 1, 1, 1)])
    def test_matches_naive(self, shape):
        # a batch of two, one channel and a 1x1 map: each axis folds its
        # own terms, whichever others have length one
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, *shape)
        n, c, h, w = shape
        for kind in ("avg", "max"):
            over_pixels = T.global_pool(x, kind, (2, 3))
            over_channels = T.global_pool(x, kind, 1)
            assert over_pixels.shape == (n, c, 1, 1)
            assert over_channels.shape == (n, 1, h, w)
            assert bits_equal(over_pixels.array, oracles.channel_pool_naive(x.array, kind))
            assert bits_equal(over_channels.array, oracles.spatial_pool_naive(x.array, kind))

    def test_empty_rejected(self):
        for axis in ((2, 3), 1):
            with pytest.raises(ShapeError, match="^global_pool needs a non-empty tensor$"):
                T.global_pool(T.Tensor.zeros(1, 0, 2, 2), "avg", axis)

    def test_unknown_kind_rejected(self):
        for axis in ((2, 3), 1):
            with pytest.raises(ValueError, match="^unknown reduction kind 'min'$"):
                T.global_pool(T.Tensor.zeros(1, 2, 2, 2), "min", axis)

    @pytest.mark.parametrize("axis", [0, 2, 3, (2,), (3, 2), (1, 2, 3), (1,)])
    def test_other_axes_rejected(self, axis):
        with pytest.raises(ValueError, match=r"^global_pool axis must be \(2, 3\) or 1, got "):
            T.global_pool(T.Tensor.zeros(1, 2, 2, 2), "max", axis)

    @pytest.mark.parametrize("axis", [True, 1.0, "1", [2, 3]])
    def test_an_axis_that_is_no_integer_is_rejected(self, axis):
        with pytest.raises(ValueError, match="^global_pool axis must be an integer, got "):
            T.global_pool(T.Tensor.zeros(1, 2, 2, 2), "max", axis)

    def test_numpy_integer_axis_accepted(self):
        x = T.Tensor.full((1, 3, 2, 2), 1.5)
        assert T.global_pool(x, "max", np.int64(1)).shape == (1, 1, 2, 2)


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


# (op, input shapes, further arguments): valid and invalid calls of every op
# the network runs.
SHAPE_ONLY_CASES = [
    (T.conv2d, [(1, 3, 9, 9)], (T.ConvParams(3, 4, 3, stride=2, padding=1),)),
    (T.conv2d, [(1, 2, 8, 8)], (T.ConvParams(3, 4, 3),)),
    (T.conv2d, [(1, 3, 2, 8)], (T.ConvParams(3, 4, 3),)),
    (T.conv2d, [(1, 3, 8, 2)], (T.ConvParams(3, 4, 3),)),
    (T.conv2d, [(0, 3, 8, 8)], (T.ConvParams(3, 4, 3, padding=1),)),
    (T.pool2d, [(1, 3, 8, 7)], ("max", 2, 2)),
    (T.pool2d, [(1, 3, 8, 8)], ("avg", 3, 1)),
    (T.pool2d, [(1, 3, 1, 8)], ("max", 2, 2)),
    (T.pool2d, [(1, 3, 8, 8)], ("mean", 2, 2)),
    (T.pool2d, [(1, 3, 8, 8)], ("max", 2, 0)),
    (T.pool2d, [(1, 3, 8, 8)], ("max", 2.0, 2)),
    (T.pool2d, [(1, 3, 8, 8)], ("avg", 2, 2.0)),
    (T.leaky_relu, [(1, 3, 4, 5)], ()),
    (T.relu, [(1, 3, 4, 5)], ()),
    (T.sigmoid, [(1, 3, 4, 5)], ()),
    (T.concat_channels, [(1, 3, 4, 4), (1, 5, 4, 4)], ()),
    (T.concat_channels, [(1, 3, 4, 4), (1, 5, 2, 4)], ()),
    (T.slice_channels, [(1, 6, 4, 4)], (2, 5)),
    (T.slice_channels, [(1, 6, 4, 4)], (2, 7)),
    (T.add, [(1, 3, 4, 4), (1, 3, 4, 4)], ()),
    (T.add, [(1, 3, 4, 4), (1, 3, 4, 2)], ()),
    (T.broadcast_mul, [(1, 3, 4, 4), (1, 3, 1, 1)], ()),
    (T.broadcast_mul, [(1, 3, 4, 4), (1, 1, 4, 4)], ()),
    (T.broadcast_mul, [(1, 3, 4, 4), (1, 3, 4, 1)], ()),
    (T.global_pool, [(1, 3, 4, 5)], ("avg", (2, 3))),
    (T.global_pool, [(1, 3, 4, 5)], ("sum", (2, 3))),
    (T.global_pool, [(1, 0, 4, 5)], ("max", (2, 3))),
    (T.global_pool, [(1, 3, 4, 5)], ("max", (1, 2))),
    (T.global_pool, [(2, 3, 4, 5)], ("max", 1)),
    (T.global_pool, [(1, 3, 0, 5)], ("avg", 1)),
    (T.global_pool, [(2, 1, 1, 1)], ("avg", (2, 3))),
    (T.upsample_nearest2x, [(1, 3, 4, 5)], ()),
]


class TestShapeOnly:
    @pytest.mark.parametrize("op, shapes, args", SHAPE_ONLY_CASES,
                             ids=[f"{op.__name__}-{i}" for i, (op, *_) in enumerate(SHAPE_ONLY_CASES)])
    def test_meta_gives_the_tensors_shape_or_error(self, op, shapes, args):
        """A shape-only input gets the output shape, or the exception type and
        message, that a tensor of its shape gets; only conv2d and pool2d
        append a row to the ledger."""
        def run(values):
            try:
                return op(*values, *args), None
            except (ShapeError, ValueError) as exc:
                return None, exc

        ledger = []
        want, want_exc = run([T.Tensor.zeros(*shape) for shape in shapes])
        got, got_exc = run([T.Meta(shape, ledger) for shape in shapes])
        rows = []
        if want_exc is not None:
            assert (type(got_exc), str(got_exc)) == (type(want_exc), str(want_exc))
        else:
            assert isinstance(got, T.Meta) and got.ledger is ledger
            assert got.shape == want.shape
            if op is T.conv2d:
                rows = [("conv", args[0], want.shape)]
            elif op is T.pool2d:
                rows = [("pool", args[1], want.shape)]
        assert ledger == rows


def conv_battery_cases():
    """(input, params, scalar reference, block) for 30 seeded random convs,
    then two fixed ones on a batch of two at stride 2: a 7x7 conv padded by 3
    to one output channel, and a 3x3 one, each with maps of at least 6 rows,
    so that bands of up to 2 rows make 3 or more bands."""
    rng = np.random.default_rng(1234)

    def case(n, c, oc, k, h, w, s, p):
        x = rand_tensor(rng, n, c, h, w)
        kern = (rng.random((oc, c, k, k), dtype=np.float32) * 2 - 1)
        bias = (rng.random(oc, dtype=np.float32) * 2 - 1)
        params = T.ConvParams(c, oc, k, stride=s, padding=p,
                              weights=kern.reshape(-1), bias=bias)
        return x, params, oracles.conv2d_naive(x.array, kern, bias, s, p)

    for i in range(30):
        n = int(rng.integers(1, 3))
        k = int(rng.choice([1, 3, 7]))
        c = int(rng.integers(1, 3 if k == 7 else 6))
        oc = 1 if i % 5 == 0 else int(rng.integers(2, 11))
        h = int(rng.integers(k, 13))
        w = int(rng.integers(k, 13))
        s = int(rng.integers(1, 3))
        p = k // 2 if rng.random() < 0.5 else 0
        yield *case(n, c, oc, k, h, w, s, p), int(rng.integers(1, 5))
    yield *case(2, 2, 1, 7, 13, 12, 2, 3), 2
    yield *case(2, 3, 5, 3, 12, 15, 2, 1), 2


# Each folding pool as f(x, kind), by the name of its scalar reference in
# ``oracles`` (without "_naive"): pool2d on 2x2 windows at stride 2, and
# global_pool over each channel's pixels and over each pixel's channels.
POOLS = {
    "pool2d": lambda x, kind: T.pool2d(x, kind, 2, 2),
    "channel_pool": lambda x, kind: T.global_pool(x, kind, (2, 3)),
    "spatial_pool": lambda x, kind: T.global_pool(x, kind, 1),
}


def oracle_pool(op: str, x: np.ndarray, kind: str) -> np.ndarray:
    args = (2, 2) if op == "pool2d" else ()
    return getattr(oracles, f"{op}_naive")(x, kind, *args)


class TestRandomizedOracleBattery:
    """Seeded randomized comparison against the scalar references."""

    def test_conv_battery(self, monkeypatch):
        # Every case runs under each fold's shape rule and under each forced
        # schedule, the blocked one with a random block width that need not
        # divide oc, the reduce one with chunks of as many terms, which need
        # not divide the term count, and the einsum one in bands of as many
        # rows, which need not divide the map's height.
        for case, (x, params, ref, block) in enumerate(conv_battery_cases()):
            terms = params.in_channels * params.kernel_size ** 2
            for schedule in SCHEDULES:
                with monkeypatch.context() as mp:
                    if schedule != "default":
                        force_schedule(mp, schedule, ref.shape, block, terms)
                    got = T.conv2d(x, params).array
                assert bits_equal(got, ref), f"conv case {case} diverged under {schedule}"

    def test_a_fusing_einsum_fails_the_probe_and_conv_keeps_the_ufunc_fills(self,
                                                                           monkeypatch):
        # A stand-in for an einsum built with fused multiply-add, as on
        # aarch64: float64 arithmetic, then one float32 rounding per
        # multiply-add, for every output subscript and then for the
        # channel-last one only.  The probe must reject it, and every conv
        # must then run the ufunc fills and match the scalar reference,
        # although the stand-in makes some battery case diverge when it does
        # run.
        cases, einsum = list(conv_battery_cases()), np.einsum
        for fused in ("oyx", "yxo"), ("yxo",):
            calls = []

            def fused_einsum(subscripts, taps, cols):
                calls.append(subscripts)
                if not subscripts.endswith(fused):
                    return einsum(subscripts, taps, cols)
                acc = np.float32(0)
                for tap, col in zip(taps.astype(np.float64), cols.astype(np.float64)):
                    acc = (acc + einsum(subscripts, tap[None], col[None])).astype(np.float32)
                return acc

            with monkeypatch.context() as mp:
                mp.setattr(np, "einsum", fused_einsum)
                assert not T._einsum_folds_in_order(), fused
                assert calls[-1].endswith(fused), fused  # it stopped at a fused spelling
                mp.setattr(T, "CONV_FOLD", "einsum" if T._einsum_folds_in_order() else "ufunc")
                calls.clear()
                for case, (x, params, ref, _) in enumerate(cases):
                    assert bits_equal(T.conv2d(x, params).array, ref), f"conv case {case}"
                assert calls == []
                mp.setattr(T, "CONV_FOLD", "einsum")
                assert not all(bits_equal(T.conv2d(x, params).array, ref)
                               for x, params, ref, _ in cases), fused

    def test_an_einsum_that_adds_the_terms_in_reverse_fails_the_probe(self, monkeypatch):
        # A stand-in einsum with one rounding per multiply and per add that
        # walks the terms last to first.  The probe's multiply-add pair sums
        # to 0 either way, so only its hashed wide-spread terms can tell.
        if not T._einsum_folds_in_order():
            pytest.skip(NO_EINSUM)
        einsum, calls = np.einsum, []

        def reversed_einsum(subscripts, taps, cols):
            calls.append(subscripts)
            return einsum(subscripts, taps[::-1].copy(), cols[::-1].copy())

        monkeypatch.setattr(np, "einsum", reversed_einsum)
        assert not T._einsum_folds_in_order()
        assert calls == ["to,tyx->oyx", "to,tyx->oyx"]  # it stopped at the spread terms

    def test_one_output_channel_on_one_pixel_never_folds_channel_last(self, monkeypatch):
        # With one output channel on a 1x1 map, "->yxo" leaves einsum only
        # the term axis, which it sums with reordered partial sums: a conv
        # routed there diverges from the scalar reference.  The schedule
        # keeps such a conv on the per-term ufunc fill, and one output
        # channel on a larger small map (the attention gate's 7x7 conv)
        # on the NCHW einsum.
        use_fold(monkeypatch, "einsum")
        rng = np.random.default_rng(31)
        c = 128
        x = T.Tensor(np.ldexp(rng.standard_normal((1, c, 3, 3)),
                              rng.integers(-16, 17, (1, c, 3, 3))).astype(np.float32))
        kern = np.ldexp(rng.standard_normal((1, c, 3, 3)),
                        rng.integers(-16, 17, (1, c, 3, 3))).astype(np.float32)
        p = T.ConvParams(c, 1, 3, weights=kern.reshape(-1))
        ref = oracles.conv2d_naive(x.array, kern, np.zeros(1, np.float32), 1, 0)
        assert ref.shape == (1, 1, 1, 1)
        assert fill_name(T._schedule(ref.shape)[0]) == "_fill_channel_last"
        assert fill_name(T._schedule((1, 1, 7, 7))[0]) == "_fill_einsum-oyx"
        assert bits_equal(T.conv2d(x, p).array, ref)
        forced = functools.partial(T._fill_einsum, spec="yxo")
        monkeypatch.setattr(T, "_schedule", lambda shape: (forced, shape[2]))
        assert not bits_equal(T.conv2d(x, p).array, ref)

    @pytest.mark.parametrize("fold", ["ufunc", "einsum"])
    def test_the_battery_runs_every_fill_the_schedule_returns(self, monkeypatch, fold):
        # Over a grid of output shapes, every fill the shape rule picks is
        # one that a forced schedule of the battery above runs (the
        # "default" and "ufunc" entries run the rule itself, so they cover
        # nothing new), so a fill added to _schedule fails here until the
        # battery forces it too.  The split unit is the output channels for
        # the blocked fill and the output rows otherwise.
        sides = (1, 2, 5, 8, 9, 13, 14, 40)
        shapes = list(itertools.product((1, 2), (1, 3, 64), sides, sides))
        forced = set()
        for name in set(SCHEDULES) - {"default", "ufunc"}:
            for shape in shapes:
                with monkeypatch.context() as mp:
                    force_schedule(mp, name, shape, block=2, terms=9)
                    forced.add(fill_name(T._schedule(shape)[0]))
        use_fold(monkeypatch, fold)
        picked = set()
        for n, oc, oh, ow in shapes:
            fill, units = T._schedule((n, oc, oh, ow))
            name = fill_name(fill)
            picked.add(name)
            assert units == (oc if name == "_fill_blocked" else oh), (n, oc, oh, ow)
        assert picked <= forced
        assert len(picked) == (3 if fold == "ufunc" else 4)

    @pytest.mark.parametrize("op", sorted(POOLS))
    def test_signed_zero_ties(self, op):
        # All 16 sign patterns of four zeros, each folded in order: one 2x2
        # window or channel per pattern, or for spatial_pool (global_pool
        # over axis 1) one pixel per pattern across four channels.
        signs = (np.arange(16)[:, None] >> np.arange(4)) & 1
        zeros = np.where(signs == 1, -0.0, 0.0).astype(np.float32)
        if op == "spatial_pool":
            x = np.ascontiguousarray(zeros.T).reshape(1, 4, 4, 4)
        else:
            x = zeros.reshape(1, 16, 2, 2)
        for kind in ("max", "avg"):
            got = POOLS[op](T.Tensor(x), kind).array
            assert bits_equal(got, oracle_pool(op, x, kind)), kind

    def test_zeros_among_negatives_whatever_np_maximum_does_on_ties(self, monkeypatch):
        # Every 4-long fold over (-2, -1, -0, +0, 1), among them the windows
        # [-1, -0, +0, -2] and [-0, -1, +0, +0]: zero maxima after a negative
        # running value, and ±0 ties in both orders.  np.maximum's result on
        # a ±0 tie differs between CPUs, so the folds also run under stand-ins
        # that return the first and the second operand of every tie.
        vals = np.array([-2.0, -1.0, -0.0, 0.0, 1.0], np.float32)
        folds = vals[np.indices((5,) * 4).reshape(4, -1).T]
        where = np.where

        def keep_first(a, b, out):
            out[...] = where(b > a, b, a)
            return out

        def keep_second(a, b, out):
            out[...] = where(a > b, a, b)
            return out

        for op in sorted(POOLS):
            if op == "spatial_pool":
                x = np.ascontiguousarray(folds.T).reshape(1, 4, -1, 1)
            else:
                x = folds.reshape(1, -1, 2, 2)
            want = oracle_pool(op, x, "max")
            for maximum in (np.maximum, keep_first, keep_second):
                with monkeypatch.context() as mp:
                    mp.setattr(np, "maximum", maximum)
                    got = POOLS[op](T.Tensor(x), "max").array
                assert bits_equal(got, want), (op, maximum.__name__)

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
