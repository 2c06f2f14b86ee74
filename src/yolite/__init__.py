"""Dependency-light inference engine and static analyzer for a two-scale
tiny object detector and its attention-augmented variant."""

from .analysis import (FlopsReport, ReceptiveField, flops_of_graph, flops_of_layer,
                       flops_of_pool, receptive_field)
from .blocks import AuxBlock, Cbam, CspBlock, ResBlockD, aux_forward, cbam_forward, \
    resblock_d_forward
from .detect import AnchorSet, Box, Detection, decode_head, detect_image, \
    filter_and_nms, iou
from .network import NetworkGraph, build_proposed, build_yolov4_tiny, count_params, \
    describe, forward, infer_shapes
from .tensor import BatchNorm, ConvParams, Tensor, add, broadcast_mul, concat_channels, \
    conv2d, global_pool, leaky_relu, pool2d, sigmoid, upsample_nearest2x
from .weights_io import fingerprint, init_seeded, load, params_checksum, save, \
    tensor_checksum

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "AuxBlock", "BatchNorm", "Box", "Cbam", "ConvParams", "CspBlock",
    "Detection", "FlopsReport", "NetworkGraph", "ReceptiveField", "ResBlockD", "Tensor",
    "add", "aux_forward", "broadcast_mul", "build_proposed", "build_yolov4_tiny",
    "cbam_forward", "concat_channels", "conv2d", "count_params", "decode_head",
    "describe", "detect_image", "filter_and_nms", "fingerprint", "flops_of_graph",
    "flops_of_layer", "flops_of_pool", "forward", "global_pool", "infer_shapes",
    "init_seeded", "iou", "leaky_relu", "load", "params_checksum", "pool2d",
    "receptive_field", "resblock_d_forward", "save", "sigmoid", "tensor_checksum",
    "upsample_nearest2x",
]
