"""Composite network blocks: CSP stage, downsampling residual stage with an
average-pool shortcut, channel+spatial attention, and the auxiliary residual
block that feeds extra features back into the backbone.

Each block is a bundle of owned convolution parameters plus a pure forward
function.  The forwards run on tensors and on shape-only ``tensor.Meta``
values alike, so a block's output shape and its conv and pool costs are read
off its forward, not restated.  All three stage-level blocks share one
interface contract: input (n, c, h, w) -> output (n, 2c, h/2, w/2), stated
once by ``stage_shape``, which is what lets them substitute for one another
inside the backbone.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ShapeError

POOL = 2  # window and stride of the stages' downsampling pools


def conv_bn_params(c_in: int, c_out: int, k: int, stride: int = 1) -> T.ConvParams:
    """Zero-weight conv with identity batch-norm and "same" padding."""
    return T.ConvParams(c_in, c_out, k, stride=stride, padding=(k - 1) // 2,
                        bn=T.BatchNorm.identity(c_out))


def conv_linear_params(c_in: int, c_out: int, k: int) -> T.ConvParams:
    """Zero-weight plain stride-1 conv with bias and "same" padding, no
    normalization, no activation."""
    return T.ConvParams(c_in, c_out, k, padding=(k - 1) // 2)


def cbl(x: T.Tensor, params: T.ConvParams) -> T.Tensor:
    """Convolution + batch-norm (inside conv2d) + leaky activation."""
    return T.leaky_relu(T.conv2d(x, params))


def stage_shape(block, shape) -> tuple[int, int, int, int]:
    """The stage rule that the csp, resblock_d and aux forwards check on
    entry: an (n, c, h, w) input of ``block.channels`` channels with even
    sides maps to (n, 2c, h/2, w/2)."""
    n, c, h, w = shape
    if c != block.channels:
        raise ShapeError(f"stage expects {block.channels} input channels, got {c}")
    if h % 2 or w % 2:
        raise ShapeError(f"stage needs even spatial dims, got ({h}, {w})")
    return n, 2 * c, h // 2, w // 2


class CspBlock:
    """Cross-stage-partial stage: split after the entry conv, run the second
    channel half through two 3x3 convs, re-merge twice, then downsample.

    Doubles channels and halves both spatial dimensions.
    """

    def __init__(self, channels: int):
        if channels % 2:
            raise ValueError(f"CspBlock channel count must be even, got {channels}")
        self.channels = channels
        c, half = channels, channels // 2
        self.conv0 = conv_bn_params(c, c, 3)
        self.conv1 = conv_bn_params(half, half, 3)
        self.conv2 = conv_bn_params(half, half, 3)
        self.conv3 = conv_bn_params(c, c, 1)

    def convs(self):
        return [("conv0", self.conv0), ("conv1", self.conv1),
                ("conv2", self.conv2), ("conv3", self.conv3)]


def csp_forward_with_route(block: CspBlock, x: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Run the CSP stage; also return the pre-merge 1x1 output used as the
    feature-pyramid route."""
    stage_shape(block, x.shape)
    c = block.channels
    x0 = cbl(x, block.conv0)
    second_half = T.slice_channels(x0, c // 2, c)
    x1 = cbl(second_half, block.conv1)
    x2 = cbl(x1, block.conv2)
    x3 = cbl(T.concat_channels(x2, x1), block.conv3)
    out = T.pool2d(T.concat_channels(x0, x3), "max", POOL, POOL)
    return out, x3


def csp_forward(block: CspBlock, x: T.Tensor) -> T.Tensor:
    return csp_forward_with_route(block, x)[0]


class ResBlockD:
    """Downsampling residual stage with two parallel paths.

    Path A: 1x1 squeeze, strided 3x3, 1x1 expand to 2c.  Path B: 2x2 average
    pool then 1x1 expand to 2c.  The final conv of each path is normalized
    but unactivated; one leaky activation follows the elementwise sum.
    """

    def __init__(self, channels: int):
        if channels % 2:
            raise ValueError(f"ResBlockD channel count must be even, got {channels}")
        self.channels = channels
        c, half = channels, channels // 2
        self.a1 = conv_bn_params(c, half, 1)
        self.a2 = conv_bn_params(half, half, 3, stride=2)
        self.a3 = conv_bn_params(half, 2 * c, 1)
        self.b1 = conv_bn_params(c, 2 * c, 1)

    def convs(self):
        return [("a1", self.a1), ("a2", self.a2), ("a3", self.a3), ("b1", self.b1)]


def resblock_d_forward(block: ResBlockD, x: T.Tensor) -> T.Tensor:
    stage_shape(block, x.shape)
    pa = cbl(x, block.a1)
    pa = cbl(pa, block.a2)
    pa = T.conv2d(pa, block.a3)
    pb = T.conv2d(T.pool2d(x, "avg", POOL, POOL), block.b1)
    return T.leaky_relu(T.add(pa, pb))


class Cbam:
    """Sequential channel then spatial attention.

    The channel gate is a shared two-layer MLP over the global average- and
    max-pooled channel vectors; the spatial gate is a 7x7 conv over the
    channelwise [max; avg] maps.  Both gates are sigmoids, so the block
    rescales features by factors strictly inside (0, 1).
    """

    SPATIAL_KERNEL = 7
    REDUCTION = 4  # channel MLP squeeze ratio

    def __init__(self, channels: int):
        if channels % self.REDUCTION:
            raise ValueError(
                f"channels ({channels}) must be divisible by reduction ({self.REDUCTION})")
        self.channels = channels
        hidden = channels // self.REDUCTION
        self.fc1 = conv_linear_params(channels, hidden, 1)
        self.fc2 = conv_linear_params(hidden, channels, 1)
        self.spatial = conv_linear_params(2, 1, self.SPATIAL_KERNEL)

    def convs(self):
        return [("fc1", self.fc1), ("fc2", self.fc2), ("spatial", self.spatial)]


def cbam_forward(block: Cbam, f: T.Tensor) -> T.Tensor:
    if f.shape[1] != block.channels:
        raise ShapeError(f"cbam expects {block.channels} input channels, got {f.shape[1]}")

    def mlp(v: T.Tensor) -> T.Tensor:
        return T.conv2d(T.relu(T.conv2d(v, block.fc1)), block.fc2)

    avg_vec = T.channel_pool(f, "avg")
    max_vec = T.channel_pool(f, "max")
    channel_map = T.sigmoid(T.add(mlp(avg_vec), mlp(max_vec)))
    f1 = T.broadcast_mul(f, channel_map)

    pooled = T.concat_channels(T.spatial_pool(f1, "max"), T.spatial_pool(f1, "avg"))
    spatial_map = T.sigmoid(T.conv2d(pooled, block.spatial))
    return T.broadcast_mul(f1, spatial_map)


class AuxBlock:
    """Auxiliary residual block: a strided 3x3, a second 3x3 (5x5 receptive
    field together), attention over the second conv's output, and a channel
    concat of the first conv's output with the attended features.

    Matches the stage interface: (n, c, h, w) -> (n, 2c, h/2, w/2).
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.conv1 = conv_bn_params(channels, channels, 3, stride=2)
        self.conv2 = conv_bn_params(channels, channels, 3)
        self.cbam = Cbam(channels)

    def convs(self):
        return [("conv1", self.conv1), ("conv2", self.conv2)] + [
            (f"cbam.{name}", p) for name, p in self.cbam.convs()]


def aux_forward(block: AuxBlock, x: T.Tensor) -> T.Tensor:
    stage_shape(block, x.shape)
    a = cbl(x, block.conv1)
    b = cbl(a, block.conv2)
    return T.concat_channels(a, cbam_forward(block.cbam, b))


def fuse(stage_out: T.Tensor, aux_out: T.Tensor) -> T.Tensor:
    """Elementwise sum merging the auxiliary features into the backbone."""
    return T.add(stage_out, aux_out)
