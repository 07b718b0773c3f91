"""Architecture wiring: shape ladder, attention gates, ASPP equivalence,
decoder contracts, parameter census, and end-to-end gradients."""

import tracemalloc

import numpy as np
import pytest

from hqinet import tensor as T
from hqinet.errors import ConfigError
from hqinet.losses import loss_terms
from hqinet.optim import Adam
from hqinet.runconfig import RunConfig
from hqinet.tensor import Tensor
from hqinet.nn import BatchNorm2d
from hqinet.network import (ASPP, Bottleneck, ChannelSE, ConvBNReLU, DecoderBlock,
                            EXPANSION, HQINet, ModelConfig,
                            ReconstructionHead, SCSE, SpatialSE, build_model,
                            parameter_count)

from _gradcheck import check
from _oracles import conv2d_naive

TINY = ModelConfig(stem_channels=8, stage_block_counts=(1, 1, 1, 1),
                   stage_channels=(4, 4, 4, 4), se_reduction=4,
                   aspp_rates=(1, 2, 3), aspp_channels=8,
                   skip_projection_channels=4, decoder_channels=(8, 8, 8, 8),
                   width_multiplier=0.5)


def scaled_tiny_model(seed):
    """Tiny double-precision model with fan-scaled weights.

    The production init (std 0.01) drives activations and gradients toward
    zero, where finite differences at step 1e-5 straddle relu kinks and the
    quotient picks up percent-level bias. Unit-scale weights keep gradients
    O(1) so the same step resolves them to ~1e-7.
    """
    m = build_model(TINY, seed=seed).astype(np.float64)
    rng = np.random.default_rng(seed + 100)
    for name, p in m.named_parameters():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "weight":
            fan_in = int(np.prod(p.data.shape[1:]))
            p.data = rng.normal(size=p.data.shape) * np.sqrt(2.0 / fan_in)
        elif leaf == "gamma":
            p.data = 1.0 + 0.1 * rng.normal(size=p.data.shape)
        else:
            p.data = 0.1 * rng.normal(size=p.data.shape)
    return m


GRADCHECK_PROBES = [
    "stem.unit1.conv.weight",
    "stage2.0.expand.weight",
    "stage1.0.attn.cse.squeeze.bias",
    "stage3.0.attn.sse.proj.weight",
    "aspp.depthwise.1.weight",
    "aspp.project.bias",
    "decoder2.proj.conv.weight",
    "decoder4.refine2.bn.gamma",
    "head.out.bias",
]


def rand(shape, seed, dtype=np.float32):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


def with_random_statistics(m, seed):
    """``m`` with every BatchNorm's affine parameters and running statistics
    drawn at random, so that folding them changes the conv weights."""
    rng = np.random.default_rng(seed)
    for bn in m.modules():
        if isinstance(bn, BatchNorm2d):
            dtype, c = bn.gamma.data.dtype, bn.channels
            bn.gamma.data = rng.uniform(0.5, 1.5, c).astype(dtype)
            bn.beta.data = rng.normal(0.0, 0.1, c).astype(dtype)
            bn.running_mean = rng.normal(0.0, 0.1, c).astype(dtype)
            bn.running_var = rng.uniform(0.5, 2.0, c).astype(dtype)
    return m


class TestModelConfig:
    def test_desk_preset(self):
        cfg = ModelConfig.desk()
        assert cfg.stage_block_counts == (1, 1, 1, 1)
        assert cfg.aspp_rates == (1, 2, 3)
        assert cfg.width_multiplier == 0.25

    def test_desk_widths(self):
        w = ModelConfig.desk().widths()
        assert w["stem"] == 4
        assert w["stage_base"] == (4, 8, 16, 32)
        assert w["stage_out"] == (16, 32, 64, 128)
        assert w["aspp"] == 16
        assert w["skip_proj"] == 3
        assert w["decoder"] == (16, 12, 8, 6)

    def test_default_widths_unscaled(self):
        w = ModelConfig().widths()
        assert w["stem"] == 16
        assert w["stage_out"] == (64, 128, 256, 512)
        assert w["decoder"] == (64, 48, 32, 24)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(width_multiplier=0.0)
        with pytest.raises(ValueError):
            ModelConfig(stage_block_counts=(1, 1, 1))
        with pytest.raises(ValueError):
            ModelConfig(aspp_rates=(2, 2, 3))
        with pytest.raises(ValueError):
            ModelConfig(aspp_rates=(1, 2))
        with pytest.raises(ValueError):
            ModelConfig(decoder_channels=(8, 8, 0, 8))

    def test_dict_round_trip(self):
        cfg = ModelConfig.desk()
        assert RunConfig.from_dict(RunConfig(model=cfg).to_dict()).model == cfg
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"model": {"stem_channels": 16, "oops": 1}})


class TestAttentionGates:
    def test_channel_gate_shape_and_range(self):
        se = ChannelSE(8, 4)
        se.squeeze.weight.data = rand(se.squeeze.weight.data.shape, 0) * 0.5
        se.expand.weight.data = rand(se.expand.weight.data.shape, 1) * 0.5
        g = se.gate(Tensor(rand((2, 8, 5, 5), 2))).data
        assert g.shape == (2, 8, 1, 1)
        assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_spatial_gate_shape_and_range(self):
        se = SpatialSE(6)
        se.proj.weight.data = rand(se.proj.weight.data.shape, 3)
        g = se.gate(Tensor(rand((2, 6, 4, 7), 4))).data
        assert g.shape == (2, 1, 4, 7)
        assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_zero_weight_channel_gate_is_half(self):
        # sigmoid(0) = 0.5, so untouched weights scale the input by half
        se = ChannelSE(4, 2)
        x = rand((1, 4, 3, 3), 5)
        out = se(Tensor(x)).data
        assert np.allclose(out, 0.5 * x, atol=1e-7)

    def test_zero_weight_spatial_gate_is_half(self):
        se = SpatialSE(4)
        x = rand((1, 4, 3, 3), 6)
        assert np.allclose(se(Tensor(x)).data, 0.5 * x, atol=1e-7)

    def test_zero_weight_scse_is_identity(self):
        # both half-gates sum back to the input
        scse = SCSE(4, 2)
        x = rand((2, 4, 3, 3), 7)
        assert np.allclose(scse(Tensor(x)).data, x, atol=1e-6)

    def test_scse_is_sum_of_branches(self):
        scse = SCSE(6, 2)
        for _, p in scse.named_parameters():
            p.data = rand(p.data.shape, hash(id(p)) % 100) * 0.3
        x = Tensor(rand((1, 6, 4, 4), 8))
        want = scse.cse(x).data + scse.sse(x).data
        assert np.allclose(scse(x).data, want, atol=1e-7)

    def test_scse_gradcheck(self):
        scse = SCSE(4, 2).astype(np.float64)
        rng = np.random.default_rng(9)
        params = [p for _, p in scse.named_parameters()]
        for p in params:
            p.data = rng.normal(size=p.data.shape) * 0.4
        x = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
        check(lambda: T.tsum(T.mul(scse(x), scse(x))), params + [x],
              max_entries=10)


class TestBottleneck:
    def test_identity_shortcut_when_shapes_match(self):
        blk = Bottleneck(16, 4, stride=1, se_reduction=4)
        assert not blk.has_projection

    def test_projection_on_stride_or_width_change(self):
        assert Bottleneck(16, 4, stride=2, se_reduction=4).has_projection
        assert Bottleneck(8, 4, stride=1, se_reduction=4).has_projection

    def test_output_shape_and_nonnegativity(self):
        blk = Bottleneck(8, 4, stride=2, se_reduction=4)
        for _, p in blk.named_parameters():
            if p.data.ndim == 4:
                p.data = rand(p.data.shape, 10) * 0.2
        out = blk(Tensor(rand((2, 8, 8, 8), 11))).data
        assert out.shape == (2, 4 * EXPANSION, 4, 4)
        assert np.all(out >= 0.0)  # final relu

    def test_gradcheck(self):
        blk = Bottleneck(4, 2, stride=1, se_reduction=2).astype(np.float64)
        rng = np.random.default_rng(12)
        params = [p for _, p in blk.named_parameters()]
        for p in params:
            p.data = rng.normal(size=p.data.shape) * 0.3
        x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
        check(lambda: T.tsum(T.mul(blk(x), blk(x))), params + [x],
              max_entries=6, tol=5e-4)


class TestASPP:
    def test_depthwise_pointwise_composes_to_dense(self):
        # no nonlinearity between the pair, so dw followed by pw must equal
        # a single dense dilated conv with the rank-1 combined kernel
        rng = np.random.default_rng(13)
        cin, cout, rate = 6, 4, 2
        aspp = ASPP(cin, (rate, 3, 4), cout).astype(np.float64)
        dw = aspp.depthwise[0]
        pw = aspp.pointwise[0]
        dw.weight.data = rng.normal(size=dw.weight.data.shape)
        pw.weight.data = rng.normal(size=pw.weight.data.shape)
        pw.bias.data = rng.normal(size=cout)
        x = rng.normal(size=(2, cin, 9, 9))
        got = pw(dw(Tensor(x))).data

        dense_w = np.zeros((cout, cin, 3, 3))
        for o in range(cout):
            for c in range(cin):
                dense_w[o, c] = pw.weight.data[o, c, 0, 0] * dw.weight.data[c, 0]
        want = conv2d_naive(x, dense_w, pw.bias.data, stride=1, dilation=rate,
                            groups=1, padding=rate)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-10

    def test_branch_count_and_output_shape(self):
        aspp = ASPP(8, (1, 2, 3), 4)
        for _, p in aspp.named_parameters():
            p.data = rand(p.data.shape, 14) * 0.2
        out = aspp(Tensor(rand((2, 8, 6, 6), 15))).data
        assert out.shape == (2, 4, 6, 6)
        assert len(aspp.depthwise) == 3 and len(aspp.pointwise) == 3
        # project sees 5 branches worth of channels
        assert aspp.project.weight.data.shape[1] == 5 * 4

    def test_gradcheck(self):
        aspp = ASPP(3, (1, 2), 2).astype(np.float64)
        rng = np.random.default_rng(16)
        params = [p for _, p in aspp.named_parameters()]
        for p in params:
            p.data = rng.normal(size=p.data.shape) * 0.3
        x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
        check(lambda: T.tsum(T.mul(aspp(x), aspp(x))), params + [x],
              max_entries=6, tol=5e-4)


class TestDecoderAndHead:
    def test_decoder_shape(self):
        blk = DecoderBlock(8, 6, 3, 5)
        for _, p in blk.named_parameters():
            if p.data.ndim == 4:
                p.data = rand(p.data.shape, 17) * 0.2
        out = blk(Tensor(rand((1, 8, 4, 4), 18)),
                  Tensor(rand((1, 6, 8, 8), 19))).data
        assert out.shape == (1, 5, 8, 8)

    def test_decoder_rejects_spatial_mismatch(self):
        blk = DecoderBlock(4, 4, 2, 4)
        with pytest.raises(ValueError):
            blk(Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32)),
                Tensor(np.zeros((1, 4, 9, 9), dtype=np.float32)))

    def test_head_zero_weights_outputs_bias(self):
        head = ReconstructionHead((4, 4, 4, 4), 6)
        head.out.bias.data = np.full(1, 0.7, dtype=np.float32)
        feats = [Tensor(rand((2, 4, s, s), 20 + s)) for s in (2, 4, 8, 16)]
        out = head(feats, 16, 16).data
        assert out.shape == (2, 1, 16, 16)
        assert np.allclose(out, 0.7, atol=1e-7)


class TestHQINet:
    def test_encode_shape_ladder(self):
        m = build_model(ModelConfig.desk(), seed=0)
        x = Tensor(rand((2, 3, 64, 64), 21))
        enc = m.encode(x)
        s0, s1, s2, s3 = enc.skips
        assert s0.data.shape == (2, 4, 32, 32)
        assert s1.data.shape == (2, 16, 32, 32)
        assert s2.data.shape == (2, 32, 16, 16)
        assert s3.data.shape == (2, 64, 8, 8)
        assert enc.bottom.data.shape == (2, 16, 4, 4)

    def test_forward_output_shape_matches_input(self):
        m = build_model(ModelConfig.desk(), seed=0)
        for h, w in ((64, 64), (32, 48)):
            out = m(Tensor(rand((1, 3, h, w), 22))).data
            assert out.shape == (1, 1, h, w)

    def test_input_validation(self):
        m = build_model(ModelConfig.desk(), seed=0)
        with pytest.raises(ValueError):
            m(Tensor(np.zeros((1, 2, 64, 64), dtype=np.float32)))
        with pytest.raises(ValueError):
            m(Tensor(np.zeros((1, 3, 60, 64), dtype=np.float32)))

    def test_eval_forward_is_pure(self):
        m = build_model(ModelConfig.desk(), seed=3).eval()
        x = Tensor(rand((1, 3, 32, 32), 23))
        buffers = [(n, b.copy()) for n, b in m.named_buffers()]
        with T.no_grad():
            a = m(x).data
            b = m(x).data
        assert np.array_equal(a, b)
        for (n, before), (_, after) in zip(buffers, m.named_buffers()):
            assert np.array_equal(before, after), n

    def test_eval_batch_permutation_equivariance(self):
        m = build_model(ModelConfig.desk(), seed=4).eval()
        x = rand((3, 3, 32, 32), 24)
        perm = np.array([2, 0, 1])
        with T.no_grad():
            y = m(Tensor(x)).data
            yp = m(Tensor(x[perm])).data
        assert np.allclose(yp, y[perm], atol=1e-6)

    def test_train_mode_output_is_finite(self):
        m = build_model(ModelConfig.desk(), seed=5)
        out = m(Tensor(rand((2, 3, 32, 32), 25))).data
        assert np.all(np.isfinite(out))

    def test_end_to_end_gradcheck(self):
        m = scaled_tiny_model(seed=6)
        rng = np.random.default_rng(26)
        named = dict(m.named_parameters())
        probes = [named[k] for k in GRADCHECK_PROBES]
        x = Tensor(rng.normal(size=(2, 3, 16, 16)), requires_grad=True)
        check(lambda: T.tmean(T.mul(m(x), m(x))), probes + [x],
              max_entries=4, eps=1e-5, tol=1e-4)

    @staticmethod
    def step_graph(config, shape, seed):
        """A training step's loss on random ``shape`` input, its graph nodes
        and the bytes of the distinct arrays their outputs live in."""
        cfg = RunConfig.desk()
        m = build_model(config, seed=seed)
        n, _, h, w = shape
        x, y = Tensor(rand(shape, 27)), Tensor(rand((n, 1, h, w), 28))
        loss = loss_terms(m(x), y, cfg.loss_weights, cfg.ssim)[0]
        seen, stack, nodes, held = set(), [loss], 0, {}
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                if t._backward is not None:
                    nodes += 1
                    buf = t.data
                    while buf.base is not None:
                        buf = buf.base
                    held[id(buf)] = buf.nbytes
                stack.extend(t._parents)
        return m, loss, nodes, sum(held.values())

    def test_desk_training_step_graph_nodes(self):
        # One node per recorded op: 31 BatchNorm layers (23 with their relu)
        # and SSIM at one node each, the convs, gates, upsamplings and the
        # rest of the loss. The convs read concatenated channels in place,
        # so no concat node.
        assert self.step_graph(ModelConfig.desk(), (4, 3, 64, 64), 7)[2] == 145

    def test_desk_training_step_held_activations(self):
        # Exact, from shapes alone, so an op that keeps one more activation
        # moves it: 12.41 MiB (14.68 MiB when relu held its own output).
        assert self.step_graph(ModelConfig.desk(), (4, 3, 64, 64), 7)[3] == 13011708

    def test_paper_width_training_step(self):
        # ModelConfig() is the paper's architecture (2.06M parameters).
        m, loss, nodes, _ = self.step_graph(ModelConfig(), (1, 3, 32, 32), 0)
        assert nodes == 361
        assert np.isfinite(float(loss.data))
        opt = Adam(list(m.named_parameters()), lr=1e-3)
        loss.backward()
        before = [p.data.copy() for p in m.parameters()]
        opt.step()
        for (name, p), b in zip(m.named_parameters(), before):
            assert p.grad is not None and np.all(np.isfinite(p.grad)), name
            assert not np.array_equal(p.data, b), name

    def test_desk_inference_forward_peak_memory(self):
        # 4 x 3 x 128^2, no graph: the head reads its four upsampled decoder
        # outputs in place, so no whole-map concatenation or padded copy
        # of them exists (38.8 MiB traced when both did).
        m = build_model(ModelConfig.desk(), seed=8).eval()
        x = Tensor(rand((4, 3, 128, 128), 29))
        tracemalloc.start()
        try:
            with T.no_grad():
                m(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


class TestBatchNormFolding:
    """Eval mode with no graph folds every BatchNorm into the conv before it
    (``tests/test_training.py::TestFoldedPredict`` checks its outputs); with
    a graph recorded it keeps BatchNorm as an op."""

    @pytest.mark.parametrize("make,probes", [
        (lambda: ConvBNReLU(3, 4, 3, stride=2, padding=1),
         ["conv.weight", "bn.gamma", "bn.beta"]),
        (lambda: Bottleneck(3, 2, 2, 2),
         ["expand.weight", "expand_bn.gamma", "expand_bn.beta",
          "shortcut.weight", "shortcut_bn.gamma", "shortcut_bn.beta"]),
    ], ids=["conv_bn_relu", "bottleneck"])
    def test_eval_mode_under_a_graph_gradchecks(self, make, probes):
        # The analytic gradients come from the recorded, unfolded graph; the
        # finite differences from the folded forward under no_grad.
        unit = with_random_statistics(make().astype(np.float64), 2).eval()
        rng = np.random.default_rng(41)
        for p in unit.parameters():
            p.data = rng.normal(size=p.data.shape)
        named = dict(unit.named_parameters())
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        weights = Tensor(rng.normal(size=unit(x).data.shape))
        check(lambda: T.tsum(T.mul(unit(x), weights)), [named[k] for k in probes] + [x])
        for k in probes:
            assert np.abs(named[k].grad).max() > 0


class TestParameterCensus:
    @staticmethod
    def conv(cin, cout, k, groups=1, bias=True):
        return k * k * (cin // groups) * cout + (cout if bias else 0)

    @classmethod
    def cbr(cls, cin, cout, k):
        return cls.conv(cin, cout, k, bias=False) + 2 * cout

    @classmethod
    def bottleneck(cls, in_c, base, stride, reduction):
        out = base * EXPANSION
        hidden = max(1, out // reduction)
        n = cls.cbr(in_c, base, 1) + cls.cbr(base, base, 3)
        n += cls.conv(base, out, 1, bias=False) + 2 * out
        n += cls.conv(out, hidden, 1) + cls.conv(hidden, out, 1)  # channel gate
        n += cls.conv(out, 1, 1)  # spatial gate
        if stride != 1 or in_c != out:
            n += cls.conv(in_c, out, 1, bias=False) + 2 * out
        return n

    @classmethod
    def expected(cls, cfg):
        w = cfg.widths()
        n = cls.cbr(3, w["stem"], 3) + cls.cbr(w["stem"], w["stem"], 3)
        in_c = w["stem"]
        for base, count, stride in zip(w["stage_base"], cfg.stage_block_counts,
                                       (1, 2, 2, 2)):
            for b in range(count):
                n += cls.bottleneck(in_c, base, stride if b == 0 else 1,
                                    cfg.se_reduction)
                in_c = base * EXPANSION
        a = w["aspp"]
        bottom = w["stage_out"][3]
        n += cls.conv(bottom, a, 1)
        n += 3 * (cls.conv(bottom, bottom, 3, groups=bottom, bias=False)
                  + cls.conv(bottom, a, 1))
        n += cls.conv(bottom, a, 1) + cls.conv(5 * a, a, 1)
        dc, sp = w["decoder"], w["skip_proj"]
        skips = (w["stage_out"][2], w["stage_out"][1], w["stage_out"][0], w["stem"])
        dec_in = (a,) + dc[:3]
        for d_in, skip, out in zip(dec_in, skips, dc):
            n += cls.cbr(skip, sp, 1) + cls.cbr(d_in + sp, out, 3) + cls.cbr(out, out, 3)
        n += cls.cbr(sum(dc), dc[3], 3) + cls.conv(dc[3], 1, 1)
        return n

    def test_desk_census_matches_hand_sum(self):
        cfg = ModelConfig.desk()
        assert parameter_count(cfg) == self.expected(cfg)
        assert parameter_count(cfg) == 64748

    def test_default_census_matches_hand_sum(self):
        cfg = ModelConfig()
        assert parameter_count(cfg) == self.expected(cfg)

    def test_count_agrees_with_built_model(self):
        cfg = TINY
        assert build_model(cfg, seed=0).num_parameters() == parameter_count(cfg)
