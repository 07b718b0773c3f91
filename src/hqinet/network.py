"""Encoder-decoder reconstruction network.

A ResNet-50-style encoder whose stem uses two 3x3 convolutions (stride 2
first), bottleneck residual blocks with an scSE attention gate on the
residual branch, an atrous-spatial-pyramid module with depthwise
separable dilated branches at the stride-16 bottom, four decoder blocks
that each 2x-upsample and merge a projected skip, and a reconstruction
head that fuses all four decoder scales into a single-channel output.

Input is a stack of three neighboring slices as channels; output is the
restored middle slice. No activation is applied to the final output.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .nn import BatchNorm2d, Conv2d, Module, conv_bn, initialize_parameters
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "EncoderOutputs",
    "ChannelSE",
    "SpatialSE",
    "SCSE",
    "Bottleneck",
    "ASPP",
    "DecoderBlock",
    "ReconstructionHead",
    "HQINet",
    "build_model",
    "parameter_count",
]

# Bottleneck blocks expand their base width by this factor on output.
EXPANSION = 4

IN_SLICES = 3
OUTPUT_STRIDE = 16  # the encoder halves the input four times


def _scale(c, width_multiplier):
    return max(1, int(round(c * width_multiplier)))


@dataclass
class ModelConfig:
    """Architecture hyperparameters; channel counts scale with width_multiplier."""

    stem_channels: int = 16
    stage_block_counts: tuple = (3, 4, 6, 3)
    stage_channels: tuple = (16, 32, 64, 128)
    se_reduction: int = 16
    aspp_rates: tuple = (6, 12, 18)
    aspp_channels: int = 64
    skip_projection_channels: int = 12
    decoder_channels: tuple = (64, 48, 32, 24)
    width_multiplier: float = 1.0

    def __post_init__(self):
        self.stage_block_counts = tuple(int(v) for v in self.stage_block_counts)
        self.stage_channels = tuple(int(v) for v in self.stage_channels)
        self.aspp_rates = tuple(int(v) for v in self.aspp_rates)
        self.decoder_channels = tuple(int(v) for v in self.decoder_channels)
        if self.width_multiplier <= 0:
            raise ValueError(
                f"width_multiplier must be > 0, got {self.width_multiplier}")
        if len(self.stage_block_counts) != 4 or any(n < 1 for n in self.stage_block_counts):
            raise ValueError(
                f"stage_block_counts must be 4 counts >= 1, got {self.stage_block_counts}")
        if len(self.stage_channels) != 4 or any(c < 1 for c in self.stage_channels):
            raise ValueError(
                f"stage_channels must be 4 widths >= 1, got {self.stage_channels}")
        if len(self.decoder_channels) != 4 or any(c < 1 for c in self.decoder_channels):
            raise ValueError(
                f"decoder_channels must be 4 widths >= 1, got {self.decoder_channels}")
        if self.se_reduction < 1:
            raise ValueError(f"se_reduction must be >= 1, got {self.se_reduction}")
        if self.stem_channels < 1 or self.aspp_channels < 1 or self.skip_projection_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if len(set(self.aspp_rates)) != len(self.aspp_rates) or any(r < 1 for r in self.aspp_rates):
            raise ValueError(
                f"aspp_rates must be distinct and >= 1, got {self.aspp_rates}")
        if len(self.aspp_rates) != 3:
            raise ValueError(
                f"exactly 3 dilated branches expected, got rates {self.aspp_rates}")

    @classmethod
    def desk(cls):
        """Small configuration sized for CPU training on 64x64 crops."""
        return cls(stage_block_counts=(1, 1, 1, 1), aspp_rates=(1, 2, 3),
                   width_multiplier=0.25)

    def scaled(self, c):
        return _scale(c, self.width_multiplier)

    def widths(self):
        """Concrete channel counts after width scaling."""
        return {
            "stem": self.scaled(self.stem_channels),
            "stage_base": tuple(self.scaled(c) for c in self.stage_channels),
            "stage_out": tuple(self.scaled(c) * EXPANSION for c in self.stage_channels),
            "aspp": self.scaled(self.aspp_channels),
            "skip_proj": self.scaled(self.skip_projection_channels),
            "decoder": tuple(self.scaled(c) for c in self.decoder_channels),
        }


@dataclass
class EncoderOutputs:
    """skips = (stem@2, stage1@2, stage2@4, stage3@8); bottom at stride 16."""

    skips: tuple
    bottom: Tensor


class ConvBNReLU(Module):
    """A bias-free conv, BatchNorm and relu. The relu is part of the
    BatchNorm op, so the unit records two graph nodes and holds two
    activations; in eval mode with no graph the BatchNorm folds into the
    conv, so inference makes one conv and one in-place relu."""

    def __init__(self, in_c, out_c, kernel_size, stride=1, padding=0):
        super().__init__()
        self.conv = Conv2d(in_c, out_c, kernel_size, stride=stride, padding=padding, bias=False)
        self.bn = BatchNorm2d(out_c)

    def forward(self, x):
        return conv_bn(self.conv, self.bn, x, relu=True)


class Stem(Module):
    """Two 3x3 conv-BN-relu units, the first at stride 2."""

    def __init__(self, in_c, out_c):
        super().__init__()
        self.unit1 = ConvBNReLU(in_c, out_c, 3, stride=2, padding=1)
        self.unit2 = ConvBNReLU(out_c, out_c, 3, stride=1, padding=1)

    def forward(self, x):
        return self.unit2(self.unit1(x))


class ChannelSE(Module):
    """Channel gate: squeeze to a vector, two 1x1 convs, sigmoid, rescale."""

    def __init__(self, channels, reduction):
        super().__init__()
        hidden = max(1, channels // reduction)
        self.squeeze = Conv2d(channels, hidden, 1, bias=True)
        self.expand = Conv2d(hidden, channels, 1, bias=True)

    def gate(self, x):
        z = T.global_avg_pool(x)
        return T.sigmoid(self.expand(T.relu(self.squeeze(z))))

    def forward(self, x):
        return T.mul_broadcast(x, self.gate(x))


class SpatialSE(Module):
    """Spatial gate: 1x1 conv to one channel, sigmoid, rescale."""

    def __init__(self, channels):
        super().__init__()
        self.proj = Conv2d(channels, 1, 1, bias=True)

    def gate(self, x):
        return T.sigmoid(self.proj(x))

    def forward(self, x):
        return T.mul_broadcast(x, self.gate(x))


class SCSE(Module):
    """Sum of the channel-gated and spatially-gated inputs."""

    def __init__(self, channels, reduction):
        super().__init__()
        self.cse = ChannelSE(channels, reduction)
        self.sse = SpatialSE(channels)

    def forward(self, x):
        return T.add(self.cse(x), self.sse(x))


class Bottleneck(Module):
    """1x1 reduce, 3x3, 1x1 expand residual block; scSE gates the residual
    branch before the shortcut addition; projection shortcut on any shape
    change."""

    def __init__(self, in_c, base_c, stride, se_reduction):
        super().__init__()
        out_c = base_c * EXPANSION
        self.reduce = ConvBNReLU(in_c, base_c, 1)
        self.spatial = ConvBNReLU(base_c, base_c, 3, stride=stride, padding=1)
        self.expand = Conv2d(base_c, out_c, 1, bias=False)
        self.expand_bn = BatchNorm2d(out_c)
        self.attn = SCSE(out_c, se_reduction)
        self.has_projection = stride != 1 or in_c != out_c
        if self.has_projection:
            self.shortcut = Conv2d(in_c, out_c, 1, stride=stride, bias=False)
            self.shortcut_bn = BatchNorm2d(out_c)

    def forward(self, x):
        r = self.attn(conv_bn(self.expand, self.expand_bn, self.spatial(self.reduce(x))))
        s = conv_bn(self.shortcut, self.shortcut_bn, x) if self.has_projection else x
        return T.relu(T.add(r, s))


class ASPP(Module):
    """Five parallel context branches over the stride-16 feature map.

    Branches: a 1x1 conv; three dilated 3x3 depthwise convolutions each
    followed by a 1x1 pointwise conv (no nonlinearity between the pair,
    so the composition equals one dense dilated conv); and image pooling
    (global average, 1x1 conv, upsample back). Each branch ends in relu;
    the concatenation is projected to ``out_channels`` by a 1x1 conv.
    """

    def __init__(self, in_c, rates, out_channels):
        super().__init__()
        self.point = Conv2d(in_c, out_channels, 1, bias=True)
        # Padding each branch by its rate keeps the map size and lets any
        # rate run on any input of at least one pixel.
        self.depthwise = [Conv2d(in_c, in_c, 3, dilation=r, padding=r, groups=in_c, bias=False)
                          for r in rates]
        self.pointwise = [Conv2d(in_c, out_channels, 1, bias=True) for _ in rates]
        self.pool_conv = Conv2d(in_c, out_channels, 1, bias=True)
        n_branches = 2 + len(rates)
        self.project = Conv2d(n_branches * out_channels, out_channels, 1, bias=True)

    def forward(self, x):
        n, c, h, w = x.data.shape
        branches = [T.relu(self.point(x))]
        for dw, pw in zip(self.depthwise, self.pointwise):
            branches.append(T.relu(pw(dw(x))))
        pooled = T.relu(self.pool_conv(T.global_avg_pool(x)))
        branches.append(T.bilinear_upsample(pooled, h, w))
        return T.relu(self.project(T.ChannelParts(*branches)))


class DecoderBlock(Module):
    """2x upsample, concat a 1x1-projected skip, refine with two 3x3 units."""

    def __init__(self, dec_c, skip_c, proj_c, out_c):
        super().__init__()
        self.proj = ConvBNReLU(skip_c, proj_c, 1)
        self.refine1 = ConvBNReLU(dec_c + proj_c, out_c, 3, padding=1)
        self.refine2 = ConvBNReLU(out_c, out_c, 3, padding=1)

    def forward(self, dec, skip):
        sh, sw = skip.data.shape[2], skip.data.shape[3]
        dh, dw = dec.data.shape[2], dec.data.shape[3]
        if (2 * dh, 2 * dw) != (sh, sw):
            raise ValueError(
                f"decoder map {dh}x{dw} upsamples to {2*dh}x{2*dw}, "
                f"which does not match skip {sh}x{sw}")
        up = T.bilinear_upsample(dec, sh, sw)
        return self.refine2(self.refine1(T.ChannelParts(up, self.proj(skip))))


class ReconstructionHead(Module):
    """Upsample all four decoder outputs to the target size, concat, fuse
    with a 3x3 conv-BN-relu, and map to one channel with a 1x1 conv."""

    def __init__(self, dec_channels, fuse_c):
        super().__init__()
        self.fuse = ConvBNReLU(sum(dec_channels), fuse_c, 3, padding=1)
        self.out = Conv2d(fuse_c, 1, 1, bias=True)

    def forward(self, decoder_outputs, target_h, target_w):
        ups = [T.bilinear_upsample(d, target_h, target_w) for d in decoder_outputs]
        return self.out(self.fuse(T.ChannelParts(*ups)))


class HQINet(Module):
    """Full network: triplet of neighboring slices in, middle slice out."""

    def __init__(self, config: ModelConfig):
        super().__init__()
        w = config.widths()
        self.stem = Stem(IN_SLICES, w["stem"])
        in_c = w["stem"]
        stages = []
        for base, count, stride in zip(w["stage_base"], config.stage_block_counts,
                                       (1, 2, 2, 2)):
            blocks = []
            for b in range(count):
                blocks.append(Bottleneck(in_c, base, stride if b == 0 else 1, config.se_reduction))
                in_c = base * EXPANSION
            stages.append(blocks)
        self.stage1, self.stage2, self.stage3, self.stage4 = stages
        self.aspp = ASPP(w["stage_out"][3], config.aspp_rates, w["aspp"])
        dc = w["decoder"]
        sp = w["skip_proj"]
        self.decoder1 = DecoderBlock(w["aspp"], w["stage_out"][2], sp, dc[0])
        self.decoder2 = DecoderBlock(dc[0], w["stage_out"][1], sp, dc[1])
        self.decoder3 = DecoderBlock(dc[1], w["stage_out"][0], sp, dc[2])
        self.decoder4 = DecoderBlock(dc[2], w["stem"], sp, dc[3])
        self.head = ReconstructionHead(dc, dc[3])

    def encode(self, x) -> EncoderOutputs:
        n, c, h, w = x.data.shape
        if c != IN_SLICES:
            raise ValueError(f"expected {IN_SLICES} input slices as channels, got {c}")
        if h % OUTPUT_STRIDE or w % OUTPUT_STRIDE:
            raise ValueError(f"input spatial size {h}x{w} must be divisible by {OUTPUT_STRIDE}")
        t = self.stem(x)
        skips = []
        for stage in (self.stage1, self.stage2, self.stage3, self.stage4):
            skips.append(t)
            for blk in stage:
                t = blk(t)
        return EncoderOutputs(skips=tuple(skips), bottom=self.aspp(t))

    def forward(self, x):
        n, _, h, w = x.data.shape
        enc = self.encode(x)
        s0, s1, s2, s3 = enc.skips
        d1 = self.decoder1(enc.bottom, s3)
        d2 = self.decoder2(d1, s2)
        d3 = self.decoder3(d2, s1)
        # The stem skip sits at stride 2; lift it to full resolution so the
        # fourth block performs the same merge as the other three.
        s0_full = T.bilinear_upsample(s0, h, w)
        d4 = self.decoder4(d3, s0_full)
        return self.head((d1, d2, d3, d4), h, w)


def build_model(config: ModelConfig, seed=None) -> HQINet:
    model = HQINet(config)
    if seed is not None:
        initialize_parameters(model, seed)
    return model


def parameter_count(config: ModelConfig) -> int:
    return HQINet(config).num_parameters()
