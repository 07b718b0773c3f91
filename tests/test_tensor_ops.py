"""Differentiable op semantics: forward values against naive oracles,
backward passes against central finite differences."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hqinet import tensor as T
from hqinet.tensor import Tensor

from _gradcheck import check
from _oracles import batch_norm_naive, conv2d_naive


def rand(shape, seed, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * scale + shift


def leaf(shape, seed, **kw):
    return Tensor(rand(shape, seed, **kw), requires_grad=True)


class TestElementwise:
    def test_add_sub_mul_div_values(self):
        a = rand((3, 4), 0)
        b = rand((3, 4), 1, shift=3.0)
        ta, tb = Tensor(a), Tensor(b)
        assert np.allclose(T.add(ta, tb).data, a + b)
        assert np.allclose(T.sub(ta, tb).data, a - b)
        assert np.allclose(T.mul(ta, tb).data, a * b)
        assert np.allclose(T.div(ta, tb).data, a / b)

    def test_scalar_operands_keep_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        for out in (T.add(x, 1.5), T.sub(x, 0.5), T.mul(x, 2.0), T.div(x, 4.0)):
            assert out.data.dtype == np.float32

    def test_broadcast_backward(self):
        a = leaf((2, 3, 4), 0)
        b = leaf((1, 3, 1), 1)
        check(lambda: T.tsum(T.mul(a, b)), [a, b])

    def test_elementwise_grads(self):
        a = leaf((4, 5), 0)
        b = leaf((4, 5), 1, shift=4.0)  # keep denominators away from 0
        check(lambda: T.tsum(T.add(a, b)), [a, b])
        check(lambda: T.tsum(T.sub(a, b)), [a, b])
        check(lambda: T.tsum(T.mul(a, b)), [a, b])
        check(lambda: T.tsum(T.div(a, b)), [a, b])
        check(lambda: T.tsum(T.neg(a)), [a])

    def test_sqrt_abs_relu_sigmoid_grads(self):
        pos = leaf((3, 3), 2, shift=5.0)
        x = leaf((4, 4), 3)
        # keep entries away from the abs/relu kinks
        x.data[np.abs(x.data) < 0.1] = 0.5
        check(lambda: T.tsum(T.sqrt(pos)), [pos])
        check(lambda: T.tsum(T.absolute(x)), [x])
        check(lambda: T.tsum(T.relu(x)), [x])
        check(lambda: T.tsum(T.sigmoid(x)), [x])

    def test_relu_and_abs_subgradient_zero_at_zero(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        T.tsum(T.relu(x)).backward()
        assert np.all(x.grad == 0.0)
        x.grad = None
        T.tsum(T.absolute(x)).backward()
        assert np.all(x.grad == 0.0)

    def test_sigmoid_extreme_inputs_stable(self):
        x = Tensor(np.array([-500.0, 500.0]))
        y = T.sigmoid(x)
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == pytest.approx(0.0, abs=1e-30)
        assert y.data[1] == pytest.approx(1.0)


class TestReductionsAndShape:
    def test_sum_mean_values(self):
        a = rand((2, 3, 4), 5)
        t = Tensor(a)
        assert np.allclose(T.tsum(t).data, a.sum())
        assert np.allclose(T.tmean(t, axis=(0, 2)).data, a.mean(axis=(0, 2)))
        assert np.allclose(T.tsum(t, axis=1, keepdims=True).data,
                           a.sum(axis=1, keepdims=True))

    def test_reduction_grads(self):
        a = leaf((2, 3, 4), 6)
        check(lambda: T.tsum(a), [a])
        check(lambda: T.tmean(a), [a])
        check(lambda: T.tsum(T.mul(T.tmean(a, axis=(0, 2), keepdims=True),
                                   T.tmean(a, axis=1, keepdims=True))), [a])

    def test_reshape_grad(self):
        a = leaf((2, 6), 7)
        check(lambda: T.tsum(T.mul(T.reshape(a, (3, 4)), T.reshape(a, (3, 4)))), [a])

    def test_backward_requires_scalar(self):
        a = leaf((2, 2), 8)
        with pytest.raises(ValueError):
            T.mul(a, a).backward()

    def test_backward_without_graph(self):
        a = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_repeated_backward_accumulates(self):
        a = leaf((3,), 9)
        loss = T.tsum(T.mul(a, a))
        loss.backward()
        first = np.array(a.grad)
        loss.backward()
        assert np.allclose(a.grad, 2.0 * first)

    def test_no_grad_suppresses_graph(self):
        a = leaf((2,), 10)
        with T.no_grad():
            out = T.mul(a, a)
        assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        a = leaf((2,), 11)
        errors = []

        def enter_and_leave():
            for _ in range(200):
                with T.no_grad():
                    if T._GRAD_MODE.enabled or T.mul(a, a).requires_grad:
                        errors.append("graph recorded under no_grad")
                if not T._GRAD_MODE.enabled:
                    errors.append("flag left off after no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_and_leave) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert T._GRAD_MODE.enabled
        out = T.mul(a, a)
        assert out.requires_grad and out._backward is not None


class TestConv2d:
    CASES = [
        dict(n=2, cin=3, cout=4, h=8, w=8, k=3, stride=1, dilation=1, groups=1, padding=0),
        dict(n=1, cin=4, cout=6, h=9, w=7, k=3, stride=2, dilation=1, groups=1, padding=1),
        dict(n=2, cin=4, cout=4, h=8, w=8, k=3, stride=1, dilation=2, groups=2, padding=2),
        dict(n=1, cin=6, cout=6, h=8, w=8, k=3, stride=1, dilation=1, groups=6, padding=1),
        dict(n=1, cin=2, cout=5, h=6, w=6, k=1, stride=1, dilation=1, groups=1, padding=0),
        dict(n=1, cin=4, cout=2, h=10, w=10, k=5, stride=2, dilation=1, groups=2, padding=2),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_naive_oracle(self, case):
        c = dict(case)
        x = rand((c["n"], c["cin"], c["h"], c["w"]), 11)
        w = rand((c["cout"], c["cin"] // c["groups"], c["k"], c["k"]), 12)
        b = rand((c["cout"],), 13)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=c["stride"],
                       dilation=c["dilation"], groups=c["groups"],
                       zero_padding=c["padding"]).data
        want = conv2d_naive(x, w, b, stride=c["stride"], dilation=c["dilation"],
                            groups=c["groups"], padding=c["padding"])
        assert got.shape == want.shape
        rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)
        assert rel < 1e-10

    @pytest.mark.parametrize("case", CASES)
    def test_gradients(self, case):
        c = dict(case)
        x = leaf((c["n"], c["cin"], c["h"], c["w"]), 14)
        w = leaf((c["cout"], c["cin"] // c["groups"], c["k"], c["k"]), 15)
        b = leaf((c["cout"],), 16)

        def fn():
            out = T.conv2d(x, w, b, stride=c["stride"], dilation=c["dilation"],
                           groups=c["groups"], zero_padding=c["padding"])
            return T.tsum(T.mul(out, out))

        check(fn, [x, w, b], max_entries=20)

    def test_rejects_bad_shapes(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w_bad_cin = Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError):
            T.conv2d(x, w_bad_cin)
        w = Tensor(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ValueError):
            T.conv2d(Tensor(np.zeros((1, 3, 2, 2))), w)  # kernel exceeds input

    def test_output_size_formula(self):
        assert T.conv_output_size(8, 3, 1, 1, 0) == 6
        assert T.conv_output_size(9, 3, 2, 1, 1) == 5
        assert T.conv_output_size(8, 3, 1, 2, 2) == 8


def _gaussian_window(size=11, sigma=1.5):
    g = np.exp(-((np.arange(size) - (size - 1) / 2.0) ** 2) / (2.0 * sigma ** 2))
    w2 = np.outer(g, g)
    return (w2 / w2.sum()).reshape(1, 1, size, size)


class TestConv2dRowBands:
    """conv2d accumulates its taps into bands of output rows, the same way
    with the graph recorded or not."""

    # (n, cin, cout, h, w, k, stride, dilation, groups, padding, bias, band rows);
    # every output height but the 1x1 stride-1 one leaves a partial last band.
    CASES = [
        (2, 3, 4, 13, 11, 3, 1, 1, 1, 1, True, 3),
        (1, 4, 6, 15, 9, 3, 2, 1, 1, 0, False, 3),
        (2, 4, 4, 16, 12, 3, 1, 2, 1, 3, True, 4),
        (1, 6, 6, 14, 10, 3, 1, 3, 6, 3, False, 3),
        (2, 6, 6, 17, 8, 3, 2, 1, 6, 1, True, 2),
        (1, 2, 5, 13, 7, 1, 2, 1, 1, 0, True, 2),
        (1, 4, 3, 9, 9, 1, 1, 1, 1, 0, False, 2),
        (1, 3, 2, 13, 10, 5, 1, 2, 1, 3, True, 5),
        (1, 4, 4, 12, 9, 3, 2, 2, 2, 1, True, 2),
        (1, 3, 2, 11, 8, 1, 2, 1, 1, 1, False, 2),
    ]

    @staticmethod
    def _run(x, w, b, kw):
        """(graph-mode, no_grad) outputs per dtype, with every input a leaf."""
        out = {}
        for dtype in (np.float32, np.float64):
            xt = Tensor(x.astype(dtype), requires_grad=True)
            wt = Tensor(w.astype(dtype), requires_grad=True)
            bt = None if b is None else Tensor(b.astype(dtype), requires_grad=True)
            graph = T.conv2d(xt, wt, bt, **kw)
            assert graph.requires_grad
            with T.no_grad():
                free = T.conv2d(xt, wt, bt, **kw)
            assert not free.requires_grad and free._backward is None
            out[dtype] = (graph.data, free.data)
        return out

    @staticmethod
    def _check(got, want, whole=None):
        scale = np.abs(want).max()
        for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
            for i, data in enumerate(got[dtype]):
                assert data.dtype == dtype and data.shape == want.shape
                assert np.abs(data - want).max() <= tol * scale
                if whole is not None:
                    assert np.abs(data - whole[dtype][i]).max() <= tol * scale

    @pytest.mark.parametrize("case", CASES)
    def test_bands_match_whole_map_and_oracle(self, case, monkeypatch):
        n, cin, cout, h, w, k, stride, dilation, groups, padding, bias, rows = case
        x = rand((n, cin, h, w), 41)
        wt = rand((cout, cin // groups, k, k), 42)
        b = rand((cout,), 43) if bias else None
        kw = dict(stride=stride, dilation=dilation, groups=groups, zero_padding=padding)
        want = conv2d_naive(x, wt, b, stride=stride, dilation=dilation, groups=groups,
                            padding=padding)
        whole = self._run(x, wt, b, kw)  # these maps fit one band of the real budget
        # The budget covers a band's input and output rows per sample; size it
        # to ``rows`` rows of float64, so float32 bands are twice as tall.
        wq = -(-(w + 2 * padding) // stride)
        monkeypatch.setattr(T, "_BAND_BYTES", rows * (cin + cout) * wq * 8)
        self._check(self._run(x, wt, b, kw), want, whole)
        params = [Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True)]
        params += [Tensor(b, requires_grad=True)] if bias else [None]

        def fn():
            out = T.conv2d(*params, **kw)
            return T.tsum(T.mul(out, out))

        check(fn, [t for t in params if t is not None], max_entries=20)

    @pytest.mark.parametrize("n,size", [(2, 64), (1, 128)])
    def test_ssim_window_matches_whole_map_and_oracle(self, n, size):
        # one input channel, 121 taps, at the real budget
        x = rand((n, 1, size, size), 44)
        self._check(self._run(x, _gaussian_window(), None, {}),
                    conv2d_naive(x, _gaussian_window()))

    def test_peak_memory_stays_below_patch_matrix(self):
        # The desk head's fuse conv at inference size. Its padded input is
        # 11.4 MB; an im2col patch matrix would be 4 x 378 x 128^2 float32,
        # 99 MB. The graph-recording call must meet the same bound.
        x = Tensor(rand((4, 42, 128, 128), 45).astype(np.float32), requires_grad=True)
        w = Tensor(rand((6, 42, 3, 3), 46).astype(np.float32), requires_grad=True)

        def peak():
            tracemalloc.start()
            try:
                T.conv2d(x, w, zero_padding=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with T.no_grad():
            assert peak() < 16 * 2**20
        assert peak() < 16 * 2**20

    @staticmethod
    def _traced(fn):
        """(fn's result, peak traced bytes during fn, traced bytes it leaves held)."""
        tracemalloc.start()
        try:
            out = fn()
            held, peak = tracemalloc.get_traced_memory()
            return out, peak, held
        finally:
            tracemalloc.stop()

    def test_head_fuse_conv_pads_one_band_at_a_time(self):
        # The desk head's fuse conv over its four upsampled decoder outputs at
        # inference size. Concatenating them and padding the whole map would
        # take 22 MiB; the band-wise conv holds its 1.6 MiB output with
        # wrap-around columns, that output's crop and one band's buffer.
        widths = (16, 12, 8, 6)
        parts = [Tensor(rand((4, c, 128, 128), 50 + i).astype(np.float32))
                 for i, c in enumerate(widths)]
        w = Tensor(rand((6, sum(widths), 3, 3), 46).astype(np.float32))
        with T.no_grad():
            _, peak, _ = self._traced(lambda: T.conv2d(T.ChannelParts(*parts), w,
                                                       zero_padding=1))
        assert peak <= 6 * 2**20

    def test_graph_conv_holds_its_output_not_its_padded_input(self):
        x = Tensor(rand((4, 42, 128, 128), 45).astype(np.float32), requires_grad=True)
        w = Tensor(rand((6, 42, 3, 3), 46).astype(np.float32), requires_grad=True)
        out, _, held = self._traced(lambda: T.conv2d(x, w, zero_padding=1))
        assert out._backward is not None
        # the padded input would be 11.4 MB, the output is 1.6 MB
        assert held < 1.1 * out.data.nbytes

    @pytest.mark.parametrize("band", ["real", "small"])
    @pytest.mark.parametrize("case", CASES)
    def test_parts_match_concat_bit_for_bit(self, case, band, monkeypatch):
        n, cin, cout, h, w, k, stride, dilation, groups, padding, bias, rows = case
        if band == "small":
            wq = -(-(w + 2 * padding) // stride)
            monkeypatch.setattr(T, "_BAND_BYTES", rows * (cin + cout) * wq * 8)
        kw = dict(stride=stride, dilation=dilation, groups=groups, zero_padding=padding)
        split = cin // 2
        for dtype in (np.float32, np.float64):
            arrays = [rand((n, split, h, w), 60), rand((n, cin - split, h, w), 61),
                      rand((cout, cin // groups, k, k), 62), rand((cout,), 63)]
            arrays = [a.astype(dtype) for a in arrays[:3 + bias]]
            results = []
            for read in (T.concat_channels, T.ChannelParts):
                leaves = [Tensor(a, requires_grad=True) for a in arrays]
                out = T.conv2d(read(*leaves[:2]), *leaves[2:], **kw)
                loss_weights = Tensor(rand(out.data.shape, 64).astype(dtype))
                T.tsum(T.mul(out, loss_weights)).backward()
                with T.no_grad():
                    free = T.conv2d(read(*leaves[:2]), *leaves[2:], **kw).data
                results.append([out.data, free] + [t.grad for t in leaves])
            for got, want in zip(*results):
                assert got.dtype == dtype and np.array_equal(got, want)


class TestBatchNorm:
    """``batch_norm`` against the elementwise composition it replaced."""

    @staticmethod
    def _inputs(dtype, mode):
        """x, gamma, beta, the running statistics (None in train mode) and the
        weights of a loss that the normalization does not cancel."""
        rng = np.random.default_rng(47)
        x = rng.normal(2.0, 3.0, size=(4, 5, 7, 6))
        arrays = [x, rng.normal(1.0, 0.5, 5), rng.normal(size=5), rng.normal(size=5),
                  rng.uniform(0.5, 3.0, 5), rng.normal(size=x.shape)]
        x, gamma, beta, mean, var, weights = [a.astype(dtype) for a in arrays]
        return x, gamma, beta, None if mode == "train" else (mean, var), weights

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_composition(self, mode, dtype, tol):
        x, gamma, beta, stats, weights = self._inputs(dtype, mode)

        def naive(x, gamma, beta, stats):
            return batch_norm_naive(x, gamma, beta, T.BN_EPSILON, stats)

        results = []
        for fn in (T.batch_norm, naive):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
            out, mean, var = fn(*leaves, stats)
            T.tsum(T.mul(out, Tensor(weights))).backward()
            results.append([out.data] + [t.grad for t in leaves] + [mean, var])
        for got, want in zip(*results):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= tol * np.abs(want).max()
        if stats is not None:
            assert results[0][4] is stats[0] and results[0][5] is stats[1]

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradcheck(self, mode):
        x, gamma, beta, stats, weights = self._inputs(np.float64, mode)
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]

        def fn():
            out = T.batch_norm(*leaves, stats)[0]
            return T.tsum(T.mul(T.mul(out, out), Tensor(weights)))

        check(fn, leaves)

    def test_one_graph_node(self):
        leaves = [Tensor(a, requires_grad=True) for a in self._inputs(np.float64, "train")[:3]]
        out = T.batch_norm(*leaves)[0]
        assert out._parents == tuple(leaves)
        with T.no_grad():
            assert T.batch_norm(*leaves)[0]._backward is None


class TestStructuralOps:
    def test_bilinear_upsample_matches_separable_direct(self):
        # direct evaluation via half-pixel center sampling, one output at a time
        x = rand((1, 2, 4, 5), 17)
        oh, ow = 8, 10
        got = T.bilinear_upsample(Tensor(x), oh, ow).data

        def sample_axis(d_out, n_in, n_out):
            s = (d_out + 0.5) * n_in / n_out - 0.5
            s = min(max(s, 0.0), n_in - 1.0)
            i0 = int(np.floor(s))
            i0 = min(i0, n_in - 2) if n_in > 1 else 0
            f = s - i0
            return i0, f

        want = np.zeros((1, 2, oh, ow))
        for c in range(2):
            for oy in range(oh):
                y0, fy = sample_axis(oy, 4, oh)
                for ox in range(ow):
                    x0, fx = sample_axis(ox, 5, ow)
                    want[0, c, oy, ox] = (
                        x[0, c, y0, x0] * (1 - fy) * (1 - fx)
                        + x[0, c, y0, x0 + 1] * (1 - fy) * fx
                        + x[0, c, y0 + 1, x0] * fy * (1 - fx)
                        + x[0, c, y0 + 1, x0 + 1] * fy * fx)
        assert np.allclose(got, want, atol=1e-12)

    def test_bilinear_upsample_same_size_is_identity(self):
        x = leaf((2, 3, 5, 7), 19)
        assert T.bilinear_upsample(x, 5, 7) is x
        # the resize it skips maps every value to itself bit for bit
        resized = T.separable(x, T._interp_matrix(5, 5, x.data.dtype),
                              T._interp_matrix(7, 7, x.data.dtype))
        assert np.array_equal(resized.data, x.data)

    def test_bilinear_upsample_grad(self):
        x = leaf((1, 2, 3, 3), 18)
        check(lambda: T.tsum(T.mul(T.bilinear_upsample(x, 6, 6),
                                   T.bilinear_upsample(x, 6, 6))), [x])

    @pytest.mark.parametrize("sigma", [1.5, 0.0])
    def test_separable_window_matches_naive(self, sigma):
        from hqinet.losses import _window_rows
        from _oracles import gaussian_window_naive
        x = rand((2, 3, 9, 14), 25)
        win = gaussian_window_naive(5, sigma) if sigma > 0 else np.full((5, 5), 1 / 25)
        want = conv2d_naive(x.reshape(6, 1, 9, 14), win.reshape(1, 1, 5, 5))
        want = want.reshape(2, 3, 5, 10)
        for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
            ah = _window_rows(9, 5, sigma, dtype)
            aw = _window_rows(14, 5, sigma, dtype)
            got = T.separable(Tensor(x.astype(dtype)), ah, aw).data
            assert got.dtype == dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_separable_grad(self):
        x = leaf((2, 1, 5, 7), 26)
        ry, rx = rand((3, 5), 27), rand((9, 7), 28)
        check(lambda: T.tsum(T.mul(T.separable(x, ry, rx), T.separable(x, ry, rx))), [x])

    def test_global_avg_pool(self):
        x = rand((2, 3, 4, 4), 19)
        out = T.global_avg_pool(Tensor(x))
        assert out.data.shape == (2, 3, 1, 1)
        assert np.allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)))
        xt = leaf((2, 3, 4, 4), 19)
        check(lambda: T.tsum(T.mul(T.global_avg_pool(xt), T.global_avg_pool(xt))), [xt])

    def test_concat_channels(self):
        a, b = rand((2, 2, 3, 3), 20), rand((2, 3, 3, 3), 21)
        out = T.concat_channels(Tensor(a), Tensor(b))
        assert out.data.shape == (2, 5, 3, 3)
        assert np.allclose(out.data[:, :2], a)
        assert np.allclose(out.data[:, 2:], b)
        ta, tb = leaf((2, 2, 3, 3), 20), leaf((2, 3, 3, 3), 21)
        check(lambda: T.tsum(T.mul(T.concat_channels(ta, tb),
                                   T.concat_channels(ta, tb))), [ta, tb])
        with pytest.raises(ValueError):
            T.concat_channels(Tensor(np.zeros((1, 1, 2, 2))),
                              Tensor(np.zeros((1, 1, 3, 2))))

    def test_mul_broadcast_gates(self):
        x = leaf((2, 3, 4, 4), 22)
        gc = leaf((2, 3, 1, 1), 23)
        gs = leaf((2, 1, 4, 4), 24)
        assert np.allclose(T.mul_broadcast(x, gc).data, x.data * gc.data)
        check(lambda: T.tsum(T.mul_broadcast(x, gc)), [x, gc])
        check(lambda: T.tsum(T.mul_broadcast(x, gs)), [x, gs])
        with pytest.raises(ValueError):
            T.mul_broadcast(x, Tensor(np.zeros((2, 3, 4, 1))))
