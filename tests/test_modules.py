"""Module plumbing, batch norm, parameter init, and the Adam optimizer."""

import numpy as np
import pytest

from hqinet import tensor as T
from hqinet.checkpoint import (CheckpointShapeError, load_checkpoint,
                               restore_model_state, restore_optimizer_state,
                               save_checkpoint)
from hqinet.tensor import BN_EPSILON, Tensor
from hqinet.nn import (INIT_STD, BatchNorm2d, Conv2d, Module, Parameter,
                       init_truncated_gaussian, initialize_parameters)
from hqinet.optim import Adam

from _oracles import adam_step_naive, truncated_std


class Tiny(Module):
    def __init__(self):
        super().__init__()
        self.first = Conv2d(2, 3, 3, padding=1)
        self.blocks = [Conv2d(3, 3, 1), Conv2d(3, 3, 1, bias=False)]
        self.bn = BatchNorm2d(3)

    def forward(self, x):
        x = self.first(x)
        for b in self.blocks:
            x = b(x)
        return self.bn(x)


class TestModuleWalk:
    def test_named_parameters_order_and_names(self):
        names = [n for n, _ in Tiny().named_parameters()]
        assert names == [
            "first.weight", "first.bias",
            "blocks.0.weight", "blocks.0.bias",
            "blocks.1.weight",
            "bn.gamma", "bn.beta",
        ]

    def test_named_buffers(self):
        names = [n for n, _ in Tiny().named_buffers()]
        assert names == ["bn.running_mean", "bn.running_var"]

    def test_train_eval_propagates(self):
        m = Tiny()
        assert m.training and m.bn.training
        m.eval()
        assert not m.training and not m.bn.training and not m.blocks[0].training
        m.train()
        assert m.bn.training

    def test_zero_grad(self):
        m = Tiny()
        opt = Adam(list(m.named_parameters()), lr=0.01)
        for _, p in m.named_parameters():
            p.grad = np.ones_like(p.data)
        opt.zero_grad()
        assert all(p.grad is None for _, p in m.named_parameters())

    def test_num_parameters(self):
        m = Tiny()
        want = sum(p.data.size for _, p in m.named_parameters())
        assert m.num_parameters() == want

    def test_astype(self):
        m = Tiny().astype(np.float64)
        assert all(p.data.dtype == np.float64 for _, p in m.named_parameters())
        assert all(b.dtype == np.float64 for _, b in m.named_buffers())


class TestConv2dModule:
    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, groups=2)

    def test_forward_matches_functional(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 4, 3, stride=2, padding=1).astype(np.float64)
        conv.weight.data = rng.normal(size=conv.weight.data.shape)
        conv.bias.data = rng.normal(size=4)
        x = Tensor(rng.normal(size=(1, 2, 7, 7)))
        want = T.conv2d(x, conv.weight, conv.bias, stride=2, zero_padding=1)
        assert np.array_equal(conv(x).data, want.data)


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm2d(3).astype(np.float64)
        x = Tensor(rng.normal(loc=4.0, scale=2.0, size=(4, 3, 8, 8)))
        out = bn(x).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_fold(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm2d(2).astype(np.float64)
        x = rng.normal(loc=1.0, scale=3.0, size=(2, 2, 4, 4))
        bn(Tensor(x))
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * mu)
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * var)

    def test_eval_mode_uses_running_stats(self):
        bn = BatchNorm2d(1).astype(np.float64).eval()
        buffers = dict(bn.named_buffers())
        buffers["running_mean"][...] = 2.0
        buffers["running_var"][...] = 4.0
        x = Tensor(np.full((1, 1, 2, 2), 6.0))
        out = bn(x).data
        want = (6.0 - 2.0) / np.sqrt(4.0 + BN_EPSILON)
        assert np.allclose(out, want)

    def test_eval_mode_does_not_touch_running_stats(self):
        bn = BatchNorm2d(2).eval()
        before = [b.copy() for _, b in bn.named_buffers()]
        bn(Tensor(np.random.default_rng(3).normal(size=(1, 2, 4, 4)).astype(np.float32)))
        after = [b for _, b in bn.named_buffers()]
        for b0, b1 in zip(before, after):
            assert np.array_equal(b0, b1)

    def test_affine_params_receive_gradient(self):
        bn = BatchNorm2d(2).astype(np.float64)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 2, 3, 3)),
                   requires_grad=True)
        T.tsum(T.mul(bn(x), bn(x))).backward()
        assert bn.gamma.grad is not None and bn.beta.grad is not None
        assert x.grad is not None

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))


class TestInit:
    def test_truncation_bound(self):
        t = init_truncated_gaussian((10000,), np.random.default_rng(0))
        assert np.abs(t).max() <= 2 * INIT_STD + 1e-12

    def test_deterministic_by_seed(self):
        a = init_truncated_gaussian((64, 64), np.random.default_rng(7))
        b = init_truncated_gaussian((64, 64), np.random.default_rng(7))
        c = init_truncated_gaussian((64, 64), np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_std_matches_truncated_analytic(self):
        t = init_truncated_gaussian((200000,), np.random.default_rng(1))
        want = truncated_std(0.01, cut=2.0)
        assert t.std() == pytest.approx(want, rel=0.02)
        assert t.mean() == pytest.approx(0.0, abs=1e-4)

    def test_initialize_parameters_policy(self):
        m = initialize_parameters(Tiny(), seed=0)
        named = dict(m.named_parameters())
        w = named["first.weight"].data
        assert np.abs(w).max() <= 2 * 0.01 + 1e-12
        assert w.std() > 0
        assert np.all(named["first.bias"].data == 0.0)
        assert np.all(named["bn.gamma"].data == 1.0)
        assert np.all(named["bn.beta"].data == 0.0)

    def test_initialize_parameters_deterministic(self):
        a = initialize_parameters(Tiny(), seed=3)
        b = initialize_parameters(Tiny(), seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)


class TestAdam:
    def _pair(self, shape, seed):
        rng = np.random.default_rng(seed)
        p = Parameter(rng.normal(size=shape))
        return p, rng

    def test_matches_naive_update_over_steps(self):
        p, rng = self._pair((3, 4), 5)
        ref_p = p.data.copy()
        ref_m = np.zeros_like(ref_p)
        ref_v = np.zeros_like(ref_p)
        opt = Adam([("w", p)], lr=0.05, beta1=0.9, beta2=0.999, epsilon=1e-8)
        for t in range(1, 6):
            g = rng.normal(size=(3, 4))
            p.grad = g.copy()
            opt.step()
            ref_p, ref_m, ref_v = adam_step_naive(
                ref_p, g, ref_m, ref_v, t, 0.05, 0.9, 0.999, 1e-8)
            assert np.allclose(p.data, ref_p, atol=1e-14)
            assert np.allclose(opt.m["w"], ref_m, atol=1e-14)
            assert np.allclose(opt.v["w"], ref_v, atol=1e-14)

    def test_first_step_direction_is_signed_gradient(self):
        # with zero initial moments the first bias-corrected step is
        # lr * g / (|g| + eps), i.e. about lr * sign(g)
        p, _ = self._pair((5,), 6)
        before = p.data.copy()
        g = np.array([1.0, -2.0, 0.5, -0.1, 3.0])
        p.grad = g
        Adam([("w", p)], lr=0.01).step()
        assert np.allclose(before - p.data, 0.01 * np.sign(g), atol=1e-6)

    def test_none_grad_treated_as_zero(self):
        p, _ = self._pair((2,), 7)
        before = p.data.copy()
        opt = Adam([("w", p)], lr=0.1)
        p.grad = None
        opt.step()
        assert np.array_equal(p.data, before)

    def test_validation(self):
        p, _ = self._pair((1,), 8)
        with pytest.raises(ValueError):
            Adam([("w", p)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([("w", p)], lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam([("a", p), ("a", p)], lr=0.1)

    @pytest.mark.parametrize("settings, message", [
        ({"epsilon": 0.0}, "epsilon must be > 0"),
        ({"epsilon": -1e-8}, "epsilon must be > 0"),
        ({"lr": float("nan")}, "lr must be finite and > 0"),
        ({"lr": float("inf")}, "lr must be finite and > 0"),
        ({"beta2": 1.5}, r"beta1 and beta2 must be in \[0, 1\)"),
    ])
    def test_rejects_out_of_range_settings(self, settings, message):
        p, _ = self._pair((1,), 8)
        with pytest.raises(ValueError, match=message):
            Adam([("w", p)], **dict({"lr": 0.1}, **settings))

    def test_state_round_trip(self, tmp_path):
        m = Tiny()
        opt = Adam(list(m.named_parameters()), lr=0.01)
        rng = np.random.default_rng(9)
        for _, p in m.named_parameters():
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
        path = str(tmp_path / "tiny.hqic")
        save_checkpoint(path, m, opt, {}, 1, 1, rng.bit_generator.state)
        state = load_checkpoint(path)
        assert set(state.moments_m) == set(state.moments_v) == set(opt.m)

        m2 = Tiny()
        opt2 = Adam(list(m2.named_parameters()), lr=0.01)
        restore_optimizer_state(opt2, state)
        for name in opt.m:
            assert np.array_equal(opt2.m[name], opt.m[name])
            assert np.array_equal(opt2.v[name], opt.v[name])
        assert opt2.step_count == 1
        state.moments_m["first.weight"] = np.zeros((3, 3))
        with pytest.raises(CheckpointShapeError):
            restore_optimizer_state(opt2, state)
        state = load_checkpoint(path)
        del state.moments_v["bn.beta"]
        with pytest.raises(CheckpointShapeError):
            restore_optimizer_state(opt2, state)
        state = load_checkpoint(path)
        state.moments_m["ghost"] = np.zeros(3)
        with pytest.raises(CheckpointShapeError, match="ghost"):
            restore_optimizer_state(opt2, state)

    def test_astype_after_adam_round_trips(self, tmp_path):
        # The moments stay float32 while the parameters become float64;
        # each moment is stored in its parameter's dtype, under its entry.
        m = Tiny()
        opt = Adam(list(m.named_parameters()), lr=0.01)
        m.astype(np.float64)
        rng = np.random.default_rng(10)
        for _, p in m.named_parameters():
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
        path = str(tmp_path / "f64.hqic")
        save_checkpoint(path, m, opt, {}, 1, 1, rng.bit_generator.state)
        state = load_checkpoint(path)
        assert all(a.dtype == np.float64 for a in state.moments_m.values())

        m2 = Tiny()
        opt2 = Adam(list(m2.named_parameters()), lr=0.01)
        m2.astype(np.float64)
        restore_model_state(m2, state)
        restore_optimizer_state(opt2, state)
        for name in opt.m:
            assert np.array_equal(opt2.m[name], opt.m[name])
            assert np.array_equal(opt2.v[name], opt.v[name])
        path2 = str(tmp_path / "f64_resaved.hqic")
        save_checkpoint(path2, m2, opt2, {}, 1, 1, state.rng_state)
        with open(path, "rb") as a, open(path2, "rb") as b:
            assert a.read() == b.read()

    def test_model_restore_checks_buffers(self, tmp_path):
        m = Tiny()
        opt = Adam(list(m.named_parameters()), lr=0.01)
        path = str(tmp_path / "tiny.hqic")
        save_checkpoint(path, m, opt, {}, 1, 1, np.random.default_rng(0).bit_generator.state)

        m2 = Tiny()
        live = dict(m2.named_buffers())
        state = load_checkpoint(path)
        state.buffers["bn.running_mean"] = np.arange(3.0)  # float64, right shape
        restore_model_state(m2, state)
        # copied into the live arrays, cast to the model's dtype
        assert m2.bn.running_mean is live["bn.running_mean"]
        assert live["bn.running_mean"].dtype == np.float32
        assert np.array_equal(live["bn.running_mean"], [0.0, 1.0, 2.0])

        m3 = Tiny()
        weight = m3.first.weight.data.copy()
        for name, arr in (("bn.running_mean", np.zeros(2)),    # wrong shape
                          ("bn.running_var", None),            # missing
                          ("bn.running_count", np.zeros(3))):  # not in the model
            state = load_checkpoint(path)
            state.params["first.weight"] = state.params["first.weight"] + 1.0
            if arr is None:
                del state.buffers[name]
            else:
                state.buffers[name] = arr
            with pytest.raises(CheckpointShapeError, match=f"buffer {name}"):
                restore_model_state(m3, state)
            # nothing is restored unless every name and shape lines up
            assert np.array_equal(m3.first.weight.data, weight)
            assert np.array_equal(m3.bn.running_mean, np.zeros(3))
